"""Command line front end.

Subcommands: haf, prob, instance (new | lossbudget), photondist,
hiding (spectra | scan), tn (cost | contract), bench (run | fit |
extrapolate | sample-cost). Every command is a pure pipeline: identical
inputs and seed produce byte-identical output files. Each subcommand
takes ``--out``, and ``--seed`` or ``--threads`` only where its handler
reads them. Every input file is read through ``_load``, so a file that
parses but lacks a field or holds a wrong type is a one-line contract
violation naming the file. Exit codes: 0 on success, 2 on usage errors,
contract violations and files that cannot be read or written, hold
malformed JSON or are malformed, 3 on resource guards.
"""

import argparse
import json
import math
import sys

import numpy as np

from . import bench as bench_mod
from . import circuit, focknet, hiding, probability
from .errors import ContractViolationError, ResourceLimitError
from .hafnian import hafnian_enum, hafnian_fast
from .matrices import _integer, matrix_from_json

EXIT_CONTRACT = 2
EXIT_RESOURCE = 3
DIST_PROB_RTOL = 1e-9   # a distribution row's prob must be exp(log_prob) to this
                        # relative tolerance; ``photondist`` writes it exactly
DIST_HEADER = "n,prob,log_prob"
BENCH_HEADER = "n,wall_seconds,reps,threads"


def _fmt(x: float) -> str:
    return repr(float(x))


def _write(path: str | None, text: str) -> None:
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _write_csv(path: str | None, header: str, rows) -> None:
    """``header`` and one line per row, its fields (ints and strings from
    ``_fmt``) joined by commas."""
    lines = [header, *(",".join(map(str, row)) for row in rows)]
    _write(path, "\n".join(lines) + "\n")


def _positive_int(text: str) -> int:
    """argparse type of a count that must be >= 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return value


def _parse_pattern(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok != ""]
    except ValueError as exc:
        raise ContractViolationError(f"bad pattern {text!r}: {exc}") from exc


def _load(path: str, parse):
    """``parse(path)``, for every input file the CLI reads.

    A file that parses but lacks a field or holds a wrong type or value
    makes ``parse`` raise KeyError, TypeError or ValueError (a contract
    violation included); that becomes one ContractViolationError naming
    the file. Unreadable files and malformed JSON keep their own errors.
    """
    try:
        return parse(path)
    except json.JSONDecodeError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        detail = f"missing field {exc}" if isinstance(exc, KeyError) else str(exc)
        raise ContractViolationError(f"malformed {path}: {detail}") from exc


def _read_json(path: str):
    with open(path) as fh:
        return json.load(fh)


def _read_csv(path: str, header: str) -> list[list[str]]:
    """Data rows of a CSV file whose first line is ``header``; blank lines
    are skipped and every row must have as many fields as the header."""
    names = header.split(",")
    rows = []
    with open(path) as fh:
        found = fh.readline().strip().split(",")
        if found != names:
            raise ValueError(f"header {found}, expected {names}")
        for line in map(str.strip, fh):
            if not line:
                continue
            fields = line.split(",")
            if len(fields) != len(names):
                raise ValueError(f"row {line!r} has {len(fields)} fields, "
                                 f"expected {len(names)}")
            rows.append(fields)
    return rows


def _read_matrix(path: str) -> np.ndarray:
    return matrix_from_json(_read_json(path))


def _cmd_haf(args) -> None:
    mat = _load(args.infile, _read_matrix)
    if args.method == "enum":
        value = hafnian_enum(mat)
    else:
        value = hafnian_fast(mat, workers=args.threads)
    _write(args.out, f"{_fmt(value.real)} {_fmt(value.imag)}\n")


def _cmd_prob(args) -> None:
    inst = _load(args.instance, circuit.load_instance)
    pattern = _parse_pattern(args.pattern)
    a = circuit.adjacency(inst)
    r_vec = np.full(inst.modes, inst.r)
    p = probability.outcome_probability(a, r_vec, pattern, workers=args.threads)
    _write(args.out, f"{_fmt(p)}\n")


def _cmd_instance_new(args) -> None:
    inst = circuit.build_instance(args.r, args.a, args.D, args.C, args.seed)
    text = json.dumps(circuit.instance_to_json(inst))
    _write(args.out, text + "\n")


def _cmd_instance_lossbudget(args) -> None:
    budget = circuit.LossBudget(eta_bs=args.eta_bs, eta_unit=args.eta_unit,
                                eta_recirc=args.eta_recirc)
    report = circuit.loss_budget_report(args.a, args.D, args.C, budget)
    _write(args.out, json.dumps(report) + "\n")


def _cmd_photondist(args) -> None:
    if args.method == "closed":
        dist = probability.lossy_total_dist_closed(args.modes, args.r, args.eta,
                                                   args.nmax)
    else:
        dist = probability.total_dist_convolution([args.r] * args.modes, args.eta,
                                                  args.nmax)
    probs = dist.probs
    _write_csv(args.out, DIST_HEADER,
               ((n, _fmt(probs[n]), _fmt(dist.log_probs[n])) for n in range(dist.n_max + 1)))


def _cmd_hiding_spectra(args) -> None:
    coe = hiding.EnsembleSpec("coe_sub", args.M, args.N, args.K)
    gsym = hiding.EnsembleSpec("gaussian_sym", args.M, args.N, args.K)
    hist_coe, hist_gsym = hiding.spectra_histograms(coe, gsym, args.samples,
                                                    args.bins, args.seed)
    edges = hist_coe.bin_edges
    _write_csv(args.out, "bin_lo,bin_hi,mass_coe,mass_gsym",
               (map(_fmt, row) for row in zip(edges[:-1], edges[1:], hist_coe.masses,
                                             hist_gsym.masses)))


def _read_scan_config(path: str):
    """(pairs, samples, bins) of a scan config. Each object is indexed
    before ``.get`` is called on it, so one that is not a JSON object
    fails with TypeError."""
    cfg = _read_json(path)
    pairs = []
    for row in cfg["pairs"]:
        m, n, k = row["M"], row["N"], row["K"]
        pairs.append((hiding.EnsembleSpec(row.get("kind_a", "coe_sub"), m, n, k),
                      hiding.EnsembleSpec(row.get("kind_b", "gaussian_sym"), m, n, k)))
    return (pairs, _integer(cfg.get("samples", 1000), "samples"),
            _integer(cfg.get("bins", 60), "bins"))


def _cmd_hiding_scan(args) -> None:
    pairs, samples, bins = _load(args.config, _read_scan_config)
    rows = hiding.hiding_scan(pairs, samples, bins, args.seed)
    _write_csv(args.out, "M,N,K,samples,bins,tv",
               ((row["M"], row["N"], row["K"], row["samples"], row["bins"], _fmt(row["tv"]))
                for row in rows))


def _cmd_tn_cost(args) -> None:
    inst = _load(args.instance, circuit.load_instance)
    pattern = _parse_pattern(args.pattern) if args.pattern else [0] * inst.modes
    network = focknet.build_network(inst, args.cutoff, pattern)
    plan = focknet.contraction_cost(network, args.trials, args.seed)
    obj = {"est_flops": plan.est_flops, "max_tensor_elems": plan.max_tensor_elems,
           "order": [list(step) for step in plan.order]}
    _write(args.out, json.dumps(obj) + "\n")


def _cmd_tn_contract(args) -> None:
    inst = _load(args.instance, circuit.load_instance)
    pattern = _parse_pattern(args.pattern)
    network = focknet.build_network(inst, args.cutoff, pattern)
    plan = focknet.contraction_cost(network, args.trials, args.seed)
    amp = focknet.contract(network, plan, memory_guard=args.memory_guard)
    _write(args.out,
           f"{_fmt(amp.real)} {_fmt(amp.imag)} {_fmt(abs(amp) ** 2)}\n")


def _cmd_bench_run(args) -> None:
    sizes = _parse_pattern(args.sizes)
    records = bench_mod.bench_hafnian(sizes, args.reps, args.seed,
                                      workers=args.threads)
    _write_csv(args.out, BENCH_HEADER,
               ((r.n, _fmt(r.wall_seconds), r.reps, r.threads) for r in records))


def _read_bench(path: str) -> list[bench_mod.BenchRecord]:
    rows = _read_csv(path, BENCH_HEADER)
    return [bench_mod.BenchRecord(int(n), float(wall), int(reps), int(threads))
            for n, wall, reps, threads in rows]


def _read_dist(path: str) -> probability.PhotonNumberDist:
    log_probs = []
    for n, (idx, prob, lp) in enumerate(_read_csv(path, DIST_HEADER)):
        if int(idx) != n:
            raise ContractViolationError("distribution rows must be consecutive")
        with np.errstate(over="ignore"):
            expected = float(np.exp(float(lp)))
        if not math.isclose(float(prob), expected, rel_tol=DIST_PROB_RTOL):
            raise ContractViolationError(
                f"row {n}: prob {prob} is not exp(log_prob) = {expected!r}")
        log_probs.append(float(lp))
    return probability.PhotonNumberDist(log_probs)


def _model_to_json(model: bench_mod.CostModel) -> str:
    return json.dumps({"c": model.c, "r_squared": model.r_squared,
                       "machine_label": model.machine_label})


def _read_model(path: str) -> bench_mod.CostModel:
    obj = _read_json(path)
    return bench_mod.CostModel(c=obj["c"], r_squared=obj["r_squared"],
                               machine_label=obj["machine_label"])


def _cmd_bench_fit(args) -> None:
    records = _load(args.infile, _read_bench)
    model = bench_mod.fit_cost_model(records, machine_label=args.label)
    _write(args.out, _model_to_json(model) + "\n")


def _cmd_bench_extrapolate(args) -> None:
    model = _load(args.model, _read_model)
    scaled = bench_mod.extrapolate(model, args.rmax_ratio, machine_label=args.label)
    _write(args.out, _model_to_json(scaled) + "\n")


def _cmd_bench_sample_cost(args) -> None:
    if args.model is not None:
        model = _load(args.model, _read_model)
    else:
        model = bench_mod.CostModel(c=args.c, r_squared=1.0, machine_label="given")
    dist = _load(args.dist, _read_dist)
    seconds, n_cut = bench_mod.sample_time_estimate(dist, model, args.overhead,
                                                    args.p_min)
    _write(args.out, json.dumps({"seconds": seconds, "n_cut": n_cut}) + "\n")


def build_parser() -> argparse.ArgumentParser:
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=int, default=0)
    threads = argparse.ArgumentParser(add_help=False)
    threads.add_argument("--threads", type=_positive_int, default=1)
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", default=None)

    parser = argparse.ArgumentParser(prog="hdgbs",
                                     description="High-dimensional GBS toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("haf", parents=[threads, out],
                       help="Hafnian of a matrix JSON file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--method", choices=["fast", "enum"], default="fast")
    p.set_defaults(func=_cmd_haf)

    p = sub.add_parser("prob", parents=[threads, out],
                       help="outcome probability for an instance and pattern")
    p.add_argument("--instance", required=True)
    p.add_argument("--pattern", required=True)
    p.set_defaults(func=_cmd_prob)

    inst = sub.add_parser("instance", help="build instances, evaluate loss budgets")
    inst_sub = inst.add_subparsers(dest="subcommand", required=True)
    p = inst_sub.add_parser("new", parents=[seed, out])
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--D", type=int, required=True)
    p.add_argument("--C", type=int, required=True)
    p.set_defaults(func=_cmd_instance_new)
    p = inst_sub.add_parser("lossbudget", parents=[out])
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--D", type=int, required=True)
    p.add_argument("--C", type=int, required=True)
    p.add_argument("--eta-bs", type=float, required=True)
    p.add_argument("--eta-unit", type=float, required=True)
    p.add_argument("--eta-recirc", type=float, default=None)
    p.set_defaults(func=_cmd_instance_lossbudget)

    p = sub.add_parser("photondist", parents=[out],
                       help="total photon-number distribution CSV")
    p.add_argument("--modes", type=int, required=True)
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--eta", type=float, default=1.0)
    p.add_argument("--nmax", type=int, required=True)
    p.add_argument("--method", choices=["closed", "conv"], default="closed")
    p.set_defaults(func=_cmd_photondist)

    hid = sub.add_parser("hiding", help="random-matrix ensemble comparisons")
    hid_sub = hid.add_subparsers(dest="subcommand", required=True)
    p = hid_sub.add_parser("spectra", parents=[seed, out])
    p.add_argument("--M", type=int, required=True)
    p.add_argument("--K", type=int, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--bins", type=int, default=60)
    p.set_defaults(func=_cmd_hiding_spectra)
    p = hid_sub.add_parser("scan", parents=[seed, out])
    p.add_argument("--config", required=True)
    p.set_defaults(func=_cmd_hiding_scan)

    tn = sub.add_parser("tn", help="tensor-network cost estimation and contraction")
    tn_sub = tn.add_subparsers(dest="subcommand", required=True)
    p = tn_sub.add_parser("cost", parents=[seed, out])
    p.add_argument("--instance", required=True)
    p.add_argument("--cutoff", type=int, default=4)
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--pattern", default=None)
    p.set_defaults(func=_cmd_tn_cost)
    p = tn_sub.add_parser("contract", parents=[seed, out])
    p.add_argument("--instance", required=True)
    p.add_argument("--cutoff", type=int, default=12)
    p.add_argument("--pattern", required=True)
    p.add_argument("--trials", type=int, default=8)
    p.add_argument("--memory-guard", type=float, default=focknet.MEMORY_GUARD_ELEMS)
    p.set_defaults(func=_cmd_tn_contract)

    ben = sub.add_parser("bench", help="cost-model benchmarking")
    ben_sub = ben.add_subparsers(dest="subcommand", required=True)
    p = ben_sub.add_parser("run", parents=[seed, threads, out])
    p.add_argument("--sizes", required=True, help="comma-separated even sizes")
    p.add_argument("--reps", type=int, default=3)
    p.set_defaults(func=_cmd_bench_run)
    p = ben_sub.add_parser("fit", parents=[out])
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--label", default="local")
    p.set_defaults(func=_cmd_bench_fit)
    p = ben_sub.add_parser("extrapolate", parents=[out])
    p.add_argument("--model", required=True)
    p.add_argument("--rmax-ratio", type=float, required=True)
    p.add_argument("--label", default=None)
    p.set_defaults(func=_cmd_bench_extrapolate)
    p = ben_sub.add_parser("sample-cost", parents=[out])
    p.add_argument("--dist", required=True)
    model = p.add_mutually_exclusive_group(required=True)
    model.add_argument("--model")
    model.add_argument("--c", type=float)
    p.add_argument("--overhead", type=float, default=100.0)
    p.add_argument("--p-min", type=float, default=1e-7)
    p.set_defaults(func=_cmd_bench_sample_cost)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:       # usage error (2) or --help (0)
        return exc.code
    try:
        args.func(args)
    except ContractViolationError as exc:
        print(f"contract violation: {exc}", file=sys.stderr)
        return EXIT_CONTRACT
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except OSError as exc:
        print(f"file error: {exc}", file=sys.stderr)
        return EXIT_CONTRACT
    except json.JSONDecodeError as exc:
        print(f"malformed JSON: {exc}", file=sys.stderr)
        return EXIT_CONTRACT
    return 0


if __name__ == "__main__":
    sys.exit(main())
