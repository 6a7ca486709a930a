"""Command line front end.

Subcommands: haf, prob, instance (new | lossbudget), photondist,
hiding (spectra | scan), tn (cost | contract), bench (run | fit |
extrapolate | sample-cost). Every command is a pure pipeline: identical
inputs and seed produce byte-identical output files. Exit codes: 0 on
success, 2 on contract violations and on files that cannot be read or
written or hold malformed JSON, 3 on resource guards.
"""

import argparse
import json
import sys

import numpy as np

from . import bench as bench_mod
from . import circuit, focknet, hiding, probability
from .errors import ContractViolationError, ResourceLimitError
from .hafnian import hafnian_enum, hafnian_fast
from .matrices import matrix_from_json

EXIT_CONTRACT = 2
EXIT_RESOURCE = 3


def _fmt(x: float) -> str:
    return repr(float(x))


def _write(path: str | None, text: str) -> None:
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_pattern(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok != ""]
    except ValueError as exc:
        raise ContractViolationError(f"bad pattern {text!r}: {exc}") from exc


def _cmd_haf(args) -> None:
    with open(args.infile) as fh:
        mat = matrix_from_json(json.load(fh))
    if args.method == "enum":
        value = hafnian_enum(mat)
    else:
        value = hafnian_fast(mat, workers=args.threads)
    _write(args.out, f"{_fmt(value.real)} {_fmt(value.imag)}\n")


def _cmd_prob(args) -> None:
    inst = circuit.load_instance(args.instance)
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
                                eta_recirc=args.eta_recirc, mode=args.mode)
    report = circuit.loss_budget_report(args.a, args.D, args.C, budget)
    _write(args.out, json.dumps(report) + "\n")


def _cmd_photondist(args) -> None:
    if args.method == "closed":
        dist = probability.lossy_total_dist_closed(args.modes, args.r, args.eta,
                                                   args.nmax)
    else:
        dist = probability.total_dist_convolution([args.r] * args.modes, args.eta,
                                                  args.nmax)
    lines = ["n,prob,log_prob"]
    probs = dist.probs
    for n in range(dist.n_max + 1):
        lines.append(f"{n},{_fmt(probs[n])},{_fmt(dist.log_probs[n])}")
    _write(args.out, "\n".join(lines) + "\n")


def _cmd_hiding_spectra(args) -> None:
    coe = hiding.EnsembleSpec("coe_sub", args.M, args.N, args.K)
    gsym = hiding.EnsembleSpec("gaussian_sym", args.M, args.N, args.K)
    hist_coe, hist_gsym = hiding.spectra_histograms(coe, gsym, args.samples,
                                                    args.bins, args.seed)
    lines = ["bin_lo,bin_hi,mass_coe,mass_gsym"]
    for i in range(len(hist_coe.masses)):
        lines.append(f"{_fmt(hist_coe.bin_edges[i])},{_fmt(hist_coe.bin_edges[i + 1])},"
                     f"{_fmt(hist_coe.masses[i])},{_fmt(hist_gsym.masses[i])}")
    _write(args.out, "\n".join(lines) + "\n")


def _cmd_hiding_scan(args) -> None:
    with open(args.config) as fh:
        cfg = json.load(fh)
    pairs = []
    for row in cfg["pairs"]:
        kind_a = row.get("kind_a", "coe_sub")
        kind_b = row.get("kind_b", "gaussian_sym")
        pairs.append((hiding.EnsembleSpec(kind_a, row["M"], row["N"], row["K"]),
                      hiding.EnsembleSpec(kind_b, row["M"], row["N"], row["K"])))
    samples = int(cfg.get("samples", 1000))
    bins = int(cfg.get("bins", 60))
    rows = hiding.hiding_scan(pairs, samples, bins, args.seed)
    lines = ["M,N,K,samples,bins,tv"]
    for row in rows:
        lines.append(f"{row['M']},{row['N']},{row['K']},{row['samples']},"
                     f"{row['bins']},{_fmt(row['tv'])}")
    _write(args.out, "\n".join(lines) + "\n")


def _cmd_tn_cost(args) -> None:
    inst = circuit.load_instance(args.instance)
    pattern = _parse_pattern(args.pattern) if args.pattern else [0] * inst.modes
    network = focknet.build_network(inst, args.cutoff, pattern)
    plan = focknet.contraction_cost(network, args.trials, args.seed)
    obj = {"est_flops": plan.est_flops, "max_tensor_elems": plan.max_tensor_elems,
           "order": [list(step) for step in plan.order]}
    _write(args.out, json.dumps(obj) + "\n")


def _cmd_tn_contract(args) -> None:
    inst = circuit.load_instance(args.instance)
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
    lines = ["n,wall_seconds,reps,threads"]
    for r in records:
        lines.append(f"{r.n},{_fmt(r.wall_seconds)},{r.reps},{r.threads}")
    _write(args.out, "\n".join(lines) + "\n")


def _read_bench_csv(path: str) -> list[bench_mod.BenchRecord]:
    records = []
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        if header != ["n", "wall_seconds", "reps", "threads"]:
            raise ContractViolationError(f"unexpected bench header {header}")
        for line in fh:
            if not line.strip():
                continue
            n, wall, reps, threads = line.strip().split(",")
            records.append(bench_mod.BenchRecord(int(n), float(wall), int(reps),
                                                 int(threads)))
    return records


def _model_to_json(model: bench_mod.CostModel) -> str:
    return json.dumps({"c": model.c, "r_squared": model.r_squared,
                       "machine_label": model.machine_label})


def _model_from_json(path: str) -> bench_mod.CostModel:
    with open(path) as fh:
        obj = json.load(fh)
    return bench_mod.CostModel(c=float(obj["c"]), r_squared=float(obj["r_squared"]),
                               machine_label=str(obj["machine_label"]))


def _cmd_bench_fit(args) -> None:
    records = _read_bench_csv(args.infile)
    model = bench_mod.fit_cost_model(records, machine_label=args.label)
    _write(args.out, _model_to_json(model) + "\n")


def _cmd_bench_extrapolate(args) -> None:
    model = _model_from_json(args.model)
    scaled = bench_mod.extrapolate(model, args.rmax_ratio, machine_label=args.label)
    _write(args.out, _model_to_json(scaled) + "\n")


def _cmd_bench_sample_cost(args) -> None:
    if args.model:
        model = _model_from_json(args.model)
    elif args.c:
        model = bench_mod.CostModel(c=args.c, r_squared=1.0, machine_label="given")
    else:
        raise ContractViolationError("provide --model or --c")
    log_probs, n = [], 0
    with open(args.dist) as fh:
        header = fh.readline().strip().split(",")
        if header != ["n", "prob", "log_prob"]:
            raise ContractViolationError(f"unexpected distribution header {header}")
        for line in fh:
            if not line.strip():
                continue
            idx, _, lp = line.strip().split(",")
            if int(idx) != n:
                raise ContractViolationError("distribution rows must be consecutive")
            log_probs.append(float(lp))
            n += 1
    dist = probability.PhotonNumberDist(np.asarray(log_probs), n - 1)
    seconds, n_cut = bench_mod.sample_time_estimate(dist, model, args.overhead,
                                                    args.p_min)
    _write(args.out, json.dumps({"seconds": seconds, "n_cut": n_cut}) + "\n")


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--threads", type=int, default=1)
    common.add_argument("--out", default=None)

    parser = argparse.ArgumentParser(prog="hdgbs",
                                     description="High-dimensional GBS toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("haf", parents=[common], help="Hafnian of a matrix JSON file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--method", choices=["fast", "enum"], default="fast")
    p.set_defaults(func=_cmd_haf)

    p = sub.add_parser("prob", parents=[common],
                       help="outcome probability for an instance and pattern")
    p.add_argument("--instance", required=True)
    p.add_argument("--pattern", required=True)
    p.set_defaults(func=_cmd_prob)

    inst = sub.add_parser("instance", help="build instances, evaluate loss budgets")
    inst_sub = inst.add_subparsers(dest="subcommand", required=True)
    p = inst_sub.add_parser("new", parents=[common])
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--D", type=int, required=True)
    p.add_argument("--C", type=int, required=True)
    p.set_defaults(func=_cmd_instance_new)
    p = inst_sub.add_parser("lossbudget", parents=[common])
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--D", type=int, required=True)
    p.add_argument("--C", type=int, required=True)
    p.add_argument("--eta-bs", type=float, required=True)
    p.add_argument("--eta-unit", type=float, required=True)
    p.add_argument("--eta-recirc", type=float, default=None)
    p.add_argument("--mode", choices=["copies", "recirculator"], default="copies")
    p.set_defaults(func=_cmd_instance_lossbudget)

    p = sub.add_parser("photondist", parents=[common],
                       help="total photon-number distribution CSV")
    p.add_argument("--modes", type=int, required=True)
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--eta", type=float, default=1.0)
    p.add_argument("--nmax", type=int, required=True)
    p.add_argument("--method", choices=["closed", "conv"], default="closed")
    p.set_defaults(func=_cmd_photondist)

    hid = sub.add_parser("hiding", help="random-matrix ensemble comparisons")
    hid_sub = hid.add_subparsers(dest="subcommand", required=True)
    p = hid_sub.add_parser("spectra", parents=[common])
    p.add_argument("--M", type=int, required=True)
    p.add_argument("--K", type=int, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--bins", type=int, default=60)
    p.set_defaults(func=_cmd_hiding_spectra)
    p = hid_sub.add_parser("scan", parents=[common])
    p.add_argument("--config", required=True)
    p.set_defaults(func=_cmd_hiding_scan)

    tn = sub.add_parser("tn", help="tensor-network cost estimation and contraction")
    tn_sub = tn.add_subparsers(dest="subcommand", required=True)
    p = tn_sub.add_parser("cost", parents=[common])
    p.add_argument("--instance", required=True)
    p.add_argument("--cutoff", type=int, default=4)
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--pattern", default=None)
    p.set_defaults(func=_cmd_tn_cost)
    p = tn_sub.add_parser("contract", parents=[common])
    p.add_argument("--instance", required=True)
    p.add_argument("--cutoff", type=int, default=12)
    p.add_argument("--pattern", required=True)
    p.add_argument("--trials", type=int, default=8)
    p.add_argument("--memory-guard", type=float, default=focknet.MEMORY_GUARD_ELEMS)
    p.set_defaults(func=_cmd_tn_contract)

    ben = sub.add_parser("bench", help="cost-model benchmarking")
    ben_sub = ben.add_subparsers(dest="subcommand", required=True)
    p = ben_sub.add_parser("run", parents=[common])
    p.add_argument("--sizes", required=True, help="comma-separated even sizes")
    p.add_argument("--reps", type=int, default=3)
    p.set_defaults(func=_cmd_bench_run)
    p = ben_sub.add_parser("fit", parents=[common])
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--label", default="local")
    p.set_defaults(func=_cmd_bench_fit)
    p = ben_sub.add_parser("extrapolate", parents=[common])
    p.add_argument("--model", required=True)
    p.add_argument("--rmax-ratio", type=float, required=True)
    p.add_argument("--label", default=None)
    p.set_defaults(func=_cmd_bench_extrapolate)
    p = ben_sub.add_parser("sample-cost", parents=[common])
    p.add_argument("--dist", required=True)
    p.add_argument("--model", default=None)
    p.add_argument("--c", type=float, default=None)
    p.add_argument("--overhead", type=float, default=100.0)
    p.add_argument("--p-min", type=float, default=1e-7)
    p.set_defaults(func=_cmd_bench_sample_cost)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
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
