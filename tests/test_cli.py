"""End-to-end tests of the command line front end."""
import argparse
import json
import math

import numpy as np
import pytest

from hdgbs import hiding
from hdgbs.circuit import build_instance, instance_to_json, load_instance
from hdgbs.cli import build_parser, main
from hdgbs.focknet import ContractionPlan, _sweep_order, build_network, replay_cost
from hdgbs.matrices import matrix_to_json


def run(args):
    return main(args)


def test_instance_new_and_prob(tmp_path):
    inst_path = tmp_path / "inst.json"
    assert run(["instance", "new", "--r", "0.3", "--a", "2", "--D", "1",
                "--C", "1", "--seed", "42", "--out", str(inst_path)]) == 0
    obj = json.loads(inst_path.read_text())
    assert obj["a"] == 2 and obj["D"] == 1 and obj["C"] == 1
    out = tmp_path / "p.txt"
    assert run(["prob", "--instance", str(inst_path), "--pattern", "0,0",
                "--out", str(out)]) == 0
    p = float(out.read_text().split()[0])
    assert p == pytest.approx(math.cosh(0.3) ** -2, rel=1e-10)


def test_instance_new_byte_identical(tmp_path):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    args = ["instance", "new", "--r", "0.8", "--a", "3", "--D", "2", "--C", "1",
            "--seed", "7"]
    assert run(args + ["--out", str(p1)]) == 0
    assert run(args + ["--out", str(p2)]) == 0
    assert p1.read_bytes() == p2.read_bytes()


def test_haf_fast_and_enum(tmp_path):
    mat = tmp_path / "m.json"
    mat.write_text(json.dumps(matrix_to_json(np.ones((4, 4)))))
    out = tmp_path / "h.txt"
    assert run(["haf", "--in", str(mat), "--method", "enum",
                "--out", str(out)]) == 0
    re_, im_ = (float(x) for x in out.read_text().split())
    assert re_ == pytest.approx(3.0) and im_ == pytest.approx(0.0)
    assert run(["haf", "--in", str(mat), "--method", "fast",
                "--out", str(out)]) == 0
    re_, im_ = (float(x) for x in out.read_text().split())
    assert re_ == pytest.approx(3.0, rel=1e-12)


def test_lossbudget_copies(tmp_path):
    out = tmp_path / "b.json"
    assert run(["instance", "lossbudget", "--a", "6", "--D", "3", "--C", "1",
                "--eta-bs", "0.9", "--eta-unit", "0.998", "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["total_transmission"] == pytest.approx(0.9 ** 3 * 0.998 ** 43,
                                                      rel=1e-12)
    assert rep["path_length_exact"] == 43


def test_lossbudget_eta_recirc_selects_recirculator(tmp_path):
    out = tmp_path / "b.json"
    assert run(["instance", "lossbudget", "--a", "6", "--D", "3", "--C", "1",
                "--eta-bs", "0.9", "--eta-unit", "0.998", "--eta-recirc", "0.995",
                "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["mode"] == "recirculator" and rep["recirculator_length"] == 216 - 43
    assert rep["total_transmission"] == pytest.approx(
        0.9 ** 3 * 0.998 ** 43 * 0.995 ** (216 - 43), rel=1e-12)


def test_photondist_methods_agree(tmp_path):
    closed, conv = tmp_path / "c.csv", tmp_path / "v.csv"
    base = ["photondist", "--modes", "6", "--r", "0.7", "--eta", "0.4",
            "--nmax", "60"]
    assert run(base + ["--method", "closed", "--out", str(closed)]) == 0
    assert run(base + ["--method", "conv", "--out", str(conv)]) == 0
    rows_c = closed.read_text().strip().splitlines()
    rows_v = conv.read_text().strip().splitlines()
    assert rows_c[0] == "n,prob,log_prob"
    assert len(rows_c) == 62
    for rc, rv in zip(rows_c[1:], rows_v[1:]):
        pc, pv = float(rc.split(",")[1]), float(rv.split(",")[1])
        assert abs(pc - pv) < 1e-10


def test_photondist_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    base = ["photondist", "--modes", "4", "--r", "0.5", "--eta", "0.9",
            "--nmax", "30", "--method", "closed"]
    assert run(base + ["--out", str(a)]) == 0
    assert run(base + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_hiding_spectra_csv(tmp_path):
    out = tmp_path / "s.csv"
    assert run(["hiding", "spectra", "--M", "30", "--K", "30", "--N", "3",
                "--samples", "40", "--bins", "12", "--seed", "5",
                "--out", str(out)]) == 0
    rows = out.read_text().strip().splitlines()
    assert rows[0] == "bin_lo,bin_hi,mass_coe,mass_gsym"
    assert len(rows) == 13
    mass = sum(float(r.split(",")[2]) for r in rows[1:])
    assert mass == pytest.approx(1.0, abs=1e-9)


def test_hiding_scan_csv(tmp_path):
    cfg = tmp_path / "scan.json"
    cfg.write_text(json.dumps({"samples": 30, "bins": 10,
                               "pairs": [{"M": 25, "N": 3, "K": 25},
                                         {"M": 36, "N": 3, "K": 18}]}))
    out = tmp_path / "scan.csv"
    assert run(["hiding", "scan", "--config", str(cfg), "--seed", "3",
                "--out", str(out)]) == 0
    rows = out.read_text().strip().splitlines()
    assert rows[0] == "M,N,K,samples,bins,tv"
    assert len(rows) == 3
    assert rows[1].startswith("25,3,25,30,10,")


def test_hiding_scan_kind_overrides(tmp_path):
    cfg = tmp_path / "scan.json"
    cfg.write_text(json.dumps({"samples": 30, "bins": 10, "pairs": [
        {"M": 25, "N": 3, "K": 25, "kind_a": "haar_sub", "kind_b": "gaussian"}]}))
    out = tmp_path / "scan.csv"
    assert run(["hiding", "scan", "--config", str(cfg), "--seed", "3",
                "--out", str(out)]) == 0
    specs = [(hiding.EnsembleSpec("haar_sub", 25, 3, 25),
              hiding.EnsembleSpec("gaussian", 25, 3, 25))]
    (expected,) = hiding.hiding_scan(specs, 30, 10, 3)
    rows = out.read_text().strip().splitlines()
    assert rows[1] == f"25,3,25,30,10,{expected['tv']!r}"


def test_hiding_scan_unknown_kind_exits_2(tmp_path, capsys):
    cfg = tmp_path / "scan.json"
    cfg.write_text(json.dumps({"samples": 3, "pairs": [
        {"M": 9, "N": 2, "K": 9, "kind_a": "haar"}]}))
    out = tmp_path / "scan.csv"
    assert run(["hiding", "scan", "--config", str(cfg), "--out", str(out)]) == 2
    assert "unknown ensemble kind 'haar'" in _assert_one_line_violation(capsys, out)


def test_tn_cost_and_contract(tmp_path):
    inst_path = tmp_path / "inst.json"
    run(["instance", "new", "--r", "0.3", "--a", "2", "--D", "2", "--C", "1",
         "--seed", "9", "--out", str(inst_path)])
    plan_path = tmp_path / "plan.json"
    assert run(["tn", "cost", "--instance", str(inst_path), "--cutoff", "4",
                "--trials", "8", "--out", str(plan_path)]) == 0
    plan = json.loads(plan_path.read_text())
    assert plan["est_flops"] > 0 and plan["max_tensor_elems"] >= 4
    assert all(len(step) == 2 for step in plan["order"])
    out = tmp_path / "amp.txt"
    assert run(["tn", "contract", "--instance", str(inst_path), "--cutoff", "8",
                "--pattern", "0,0,0,0", "--out", str(out)]) == 0
    re_, im_, prob = (float(x) for x in out.read_text().split())
    assert re_ ** 2 + im_ ** 2 == pytest.approx(math.cosh(0.3) ** -4, rel=1e-6)
    assert prob == pytest.approx(math.cosh(0.3) ** -4, rel=1e-6)


@pytest.mark.parametrize("params, sweep_wins", [(("0.8", "4", "3", "1"), True),
                                                 (("0.5", "3", "2", "1"), False)])
def test_tn_cost_reports_at_most_the_sweep(tmp_path, params, sweep_wins):
    inst_path = tmp_path / "inst.json"
    r, a, d, c = params
    run(["instance", "new", "--r", r, "--a", a, "--D", d, "--C", c,
         "--seed", "3", "--out", str(inst_path)])
    plan_path = tmp_path / "plan.json"
    assert run(["tn", "cost", "--instance", str(inst_path), "--cutoff", "4",
                "--trials", "8", "--out", str(plan_path)]) == 0
    plan = json.loads(plan_path.read_text())
    net = build_network(load_instance(str(inst_path)), 4, [0] * int(a) ** int(d))
    sweep = _sweep_order(net)
    flops, elems = replay_cost(net, ContractionPlan(sweep, 0.0, 0.0))
    assert (plan["est_flops"], plan["max_tensor_elems"]) <= (flops, elems)
    assert (plan["order"] == [list(step) for step in sweep]) == sweep_wins


def test_tn_cost_beyond_float_range_prices_the_sweep(tmp_path, capsys):
    # intermediates of this 512-mode network pass 4^512, so element counts
    # must saturate at inf rather than overflow; the sweep still fits
    inst_path = tmp_path / "inst.json"
    assert run(["instance", "new", "--r", "0.8", "--a", "8", "--D", "3", "--C", "1",
                "--seed", "1", "--out", str(inst_path)]) == 0
    assert run(["tn", "cost", "--instance", str(inst_path), "--cutoff", "8",
                "--trials", "1"]) == 0
    captured = capsys.readouterr()
    assert captured.err == "" and "Infinity" not in captured.out
    plan = json.loads(captured.out)
    assert plan["est_flops"] == 2.3824428586556006e+136
    assert math.isfinite(plan["max_tensor_elems"])


def test_tn_cost_with_no_plan_in_float_range_exits_3(tmp_path, capsys):
    # at cutoff 6 the 512-mode a = 2, D = 9 network has no plan whose
    # est_flops fits a float
    inst_path = tmp_path / "inst.json"
    assert run(["instance", "new", "--r", "0.8", "--a", "2", "--D", "9", "--C", "1",
                "--seed", "1", "--out", str(inst_path)]) == 0
    plan_path = tmp_path / "plan.json"
    assert run(["tn", "cost", "--instance", str(inst_path), "--cutoff", "6",
                "--trials", "1", "--out", str(plan_path)]) == 3
    assert not plan_path.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("resource limit: no contraction plan found whose cost "
                            "fits the float range\n")


def test_bench_pipeline(tmp_path):
    csv = tmp_path / "bench.csv"
    assert run(["bench", "run", "--sizes", "8,10,12,14,16,18,20,22",
                "--reps", "1", "--seed", "1", "--out", str(csv)]) == 0
    rows = csv.read_text().strip().splitlines()
    assert rows[0] == "n,wall_seconds,reps,threads"
    assert len(rows) == 9
    model_path = tmp_path / "model.json"
    assert run(["bench", "fit", "--in", str(csv), "--label", "desk",
                "--out", str(model_path)]) == 0
    model = json.loads(model_path.read_text())
    assert model["c"] > 0 and model["machine_label"] == "desk"
    scaled_path = tmp_path / "scaled.json"
    assert run(["bench", "extrapolate", "--model", str(model_path),
                "--rmax-ratio", "122.8", "--out", str(scaled_path)]) == 0
    scaled = json.loads(scaled_path.read_text())
    assert scaled["c"] == pytest.approx(model["c"] / 122.8, rel=1e-12)


def test_bench_sample_cost(tmp_path):
    dist_path = tmp_path / "dist.csv"
    run(["photondist", "--modes", "8", "--r", "0.6", "--eta", "0.5",
         "--nmax", "40", "--method", "closed", "--out", str(dist_path)])
    out = tmp_path / "cost.json"
    assert run(["bench", "sample-cost", "--dist", str(dist_path),
                "--c", "1e-12", "--overhead", "100", "--p-min", "1e-7",
                "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["seconds"] > 0
    assert 0 < rep["n_cut"] <= 40


def test_exit_code_contract_violation(tmp_path):
    assert run(["photondist", "--modes", "4", "--r", "0.5", "--eta", "1.5",
                "--nmax", "10", "--out", str(tmp_path / "x.csv")]) == 2


def test_exit_code_resource_limit(tmp_path):
    assert run(["instance", "new", "--r", "0.5", "--a", "10", "--D", "5",
                "--C", "1", "--seed", "0", "--out", str(tmp_path / "x.json")]) == 3


def test_instance_whose_unitary_disagrees_with_gates_exits_2(tmp_path, capsys):
    inst_path = tmp_path / "small.json"
    assert run(["instance", "new", "--r", "0.3", "--a", "2", "--D", "2", "--C", "1",
                "--seed", "7", "--out", str(inst_path)]) == 0
    obj = json.loads(inst_path.read_text())
    obj["gates"][0]["v"] = matrix_to_json(np.array([[0.0, 1.0], [1.0, 0.0]]))
    inst_path.write_text(json.dumps(obj))
    capsys.readouterr()
    assert run(["prob", "--instance", str(inst_path), "--pattern", "0,2,0,2"]) == 2
    assert run(["tn", "contract", "--instance", str(inst_path),
                "--pattern", "0,2,0,2"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.count("product of the gates") == 2


def test_exit_code_missing_file(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert run(["bench", "extrapolate", "--model", str(missing),
                "--rmax-ratio", "2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("file error: ") and str(missing) in err
    assert err.count("\n") == 1


def test_exit_code_malformed_json(tmp_path, capsys):
    model = tmp_path / "model.json"
    model.write_text("{\"c\": 1e-9,")
    assert run(["bench", "extrapolate", "--model", str(model),
                "--rmax-ratio", "2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("malformed JSON: ") and err.count("\n") == 1


def test_exit_code_unwritable_output(tmp_path, capsys):
    out = tmp_path / "no_such_dir" / "b.json"
    assert run(["instance", "lossbudget", "--a", "2", "--D", "1", "--C", "1",
                "--eta-bs", "0.9", "--eta-unit", "0.99", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("file error: ")


def test_usage_error_returns_2(capsys):
    # a flag the subcommand does not take is a usage error, returned
    # rather than raised as SystemExit
    assert run(["photondist", "--modes", "4", "--r", "0.5", "--nmax", "10",
                "--seed", "1"]) == 2
    assert run([]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "unrecognized arguments: --seed 1" in captured.err


# every subcommand's flags, so a flag its handler ignores cannot come back
FLAGS = {
    "haf": {"--in", "--method", "--threads", "--out"},
    "prob": {"--instance", "--pattern", "--threads", "--out"},
    "instance new": {"--r", "--a", "--D", "--C", "--seed", "--out"},
    "instance lossbudget": {"--a", "--D", "--C", "--eta-bs", "--eta-unit",
                            "--eta-recirc", "--out"},
    "photondist": {"--modes", "--r", "--eta", "--nmax", "--method", "--out"},
    "hiding spectra": {"--M", "--K", "--N", "--samples", "--bins", "--seed", "--out"},
    "hiding scan": {"--config", "--seed", "--out"},
    "tn cost": {"--instance", "--cutoff", "--trials", "--pattern", "--seed", "--out"},
    "tn contract": {"--instance", "--cutoff", "--pattern", "--trials",
                    "--memory-guard", "--seed", "--out"},
    "bench run": {"--sizes", "--reps", "--seed", "--threads", "--out"},
    "bench fit": {"--in", "--label", "--out"},
    "bench extrapolate": {"--model", "--rmax-ratio", "--label", "--out"},
    "bench sample-cost": {"--dist", "--model", "--c", "--overhead", "--p-min", "--out"},
}


def _subcommand_flags(parser, prefix=()):
    subparsers = [a for a in parser._actions
                  if isinstance(a, argparse._SubParsersAction)]
    if subparsers:
        for name, child in subparsers[0].choices.items():
            yield from _subcommand_flags(child, prefix + (name,))
    else:
        yield " ".join(prefix), {opt for a in parser._actions for opt in a.option_strings
                                 if not isinstance(a, argparse._HelpAction)}


def test_each_subcommand_takes_only_its_flags():
    assert dict(_subcommand_flags(build_parser())) == FLAGS


def _dist_csv(tmp_path):
    path = tmp_path / "dist.csv"
    assert run(["photondist", "--modes", "8", "--r", "0.6", "--eta", "0.5",
                "--nmax", "40", "--out", str(path)]) == 0
    return path


def test_sample_cost_model_and_c_exclude_each_other(tmp_path, capsys):
    model = tmp_path / "model.json"
    model.write_text(json.dumps({"c": 1e-12, "r_squared": 1.0, "machine_label": "m"}))
    assert run(["bench", "sample-cost", "--dist", str(_dist_csv(tmp_path)),
                "--model", str(model), "--c", "1e-12"]) == 2
    assert "not allowed with argument" in capsys.readouterr().err


def test_sample_cost_zero_constant_is_named(tmp_path, capsys):
    assert run(["bench", "sample-cost", "--dist", str(_dist_csv(tmp_path)),
                "--c", "0"]) == 2
    assert capsys.readouterr().err == ("contract violation: model constant c must be "
                                       "a real number in (0, inf), got 0.0\n")


def _instance_obj(**changes):
    obj = instance_to_json(build_instance(0.3, 2, 2, 1, seed=7))
    obj.update(changes)
    return obj


def _without(obj, key):
    return {k: v for k, v in obj.items() if k != key}


MODEL = {"c": 1e-9, "r_squared": 0.99, "machine_label": "desk"}
DIST_ROWS = "n,prob,log_prob\n0,0.5,-0.6931471805599453\n"
BENCH_ROWS = "n,wall_seconds,reps,threads\n14,0.001,1,1\n"

# (input format, command with the file as {}, missing-field content,
# wrong-type content or a tuple of them)
MALFORMED = [
    ("scan config", ["hiding", "scan", "--config", "{}"],
     json.dumps({"samples": 10}), json.dumps({"pairs": [[25, 3, 25]]})),
    ("model", ["bench", "extrapolate", "--model", "{}", "--rmax-ratio", "2"],
     json.dumps(_without(MODEL, "r_squared")),
     (json.dumps({**MODEL, "c": "fast"}),
      json.dumps({"c": True, "r_squared": True, "machine_label": 5}),
      json.dumps({**MODEL, "r_squared": True}), json.dumps({**MODEL, "machine_label": 5}),
      json.dumps({**MODEL, "c": 10 ** 400}))),
    ("matrix", ["haf", "--in", "{}"],
     json.dumps({"rows": 2, "cols": 2, "re": [0, 1, 1, 0]}), json.dumps([1, 2])),
    ("instance", ["prob", "--instance", "{}", "--pattern", "0,0,0,0"],
     json.dumps(_without(_instance_obj(), "gates")), json.dumps(_instance_obj(gates=5))),
    ("distribution CSV", ["bench", "sample-cost", "--dist", "{}", "--c", "1e-12"],
     DIST_ROWS + "1,0.25\n", DIST_ROWS + "1,0.25,abc\n"),
    ("bench CSV", ["bench", "fit", "--in", "{}"],
     BENCH_ROWS + "16,0.004,1\n", BENCH_ROWS + "16,abc,1,1\n"),
]


@pytest.mark.parametrize("fault", ["missing field", "wrong type"])
@pytest.mark.parametrize("fmt,argv,missing,wrong", MALFORMED,
                         ids=[case[0] for case in MALFORMED])
def test_malformed_input_file_exits_2(tmp_path, capsys, fmt, argv, missing, wrong,
                                      fault):
    path = tmp_path / "input"
    contents = missing if fault == "missing field" else wrong
    for content in (contents,) if isinstance(contents, str) else contents:
        path.write_text(content)
        assert run([str(path) if a == "{}" else a for a in argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"contract violation: malformed {path}: ")
        assert captured.err.count("\n") == 1


# A JSON integer field holding a float or a bool used to be truncated by
# int(); one case per reader that takes integer fields.
NON_INTEGER = [
    ("scan config", ["hiding", "scan", "--config", "{}", "--seed", "3"],
     {"samples": 30, "bins": 10.9, "pairs": [{"M": 25, "N": 3, "K": 25}]},
     "bins must be an integer, got 10.9"),
    ("instance", ["prob", "--instance", "{}", "--pattern", "0,0,0,0"],
     _instance_obj(a=2.0), "lattice size a must be an integer, got 2.0"),
    ("matrix", ["haf", "--in", "{}"],
     {"rows": True, "cols": 1, "re": [1.0], "im": [0.0]},
     "rows must be an integer, got True"),
]


@pytest.mark.parametrize("fmt,argv,obj,message", NON_INTEGER,
                         ids=[case[0] for case in NON_INTEGER])
def test_non_integer_integer_field_exits_2(tmp_path, capsys, fmt, argv, obj, message):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(obj))
    assert run([str(path) if a == "{}" else a for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"contract violation: malformed {path}: {message}\n"


def test_sample_cost_rejects_prob_column_that_is_not_exp_log_prob(tmp_path, capsys):
    dist_path = tmp_path / "dist.csv"
    assert run(["photondist", "--modes", "8", "--r", "0.6", "--eta", "0.5",
                "--nmax", "40", "--out", str(dist_path)]) == 0
    cost = ["bench", "sample-cost", "--c", "1e-12", "--overhead", "100",
            "--p-min", "1e-7", "--dist"]
    assert run(cost + [str(dist_path)]) == 0
    header, *rows = dist_path.read_text().splitlines()
    zeroed = tmp_path / "zeroed.csv"
    zeroed.write_text("\n".join([header] + [f"{n},0.0,{lp}" for n, _, lp in
                                            (row.split(",") for row in rows)]) + "\n")
    capsys.readouterr()
    assert run(cost + [str(zeroed)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"contract violation: malformed {zeroed}: row 0: ")
    assert captured.err.count("\n") == 1


def _with_gate_product(obj):
    """``obj`` with its unitary set to the ordered product of its gates, so
    that the stored copy agrees with the gates and only the structural rules
    of an instance can reject the file."""
    u = np.eye(obj["a"] ** obj["D"], dtype=complex)
    for g in obj["gates"]:
        v = (np.array(g["v"]["re"]) + 1j * np.array(g["v"]["im"])).reshape(2, 2)
        u[[g["i"], g["j"]], :] = v @ u[[g["i"], g["j"]], :]
    return {**obj, "unitary": matrix_to_json(u)}


def _gate_03():
    obj = json.loads(json.dumps(_instance_obj()))
    obj["gates"][0]["j"] = 3        # modes (0, 3): not the delay-1 gate (0, 1)
    return _with_gate_product(obj)


# instance files that used to load and run with exit 0, each with a unitary
# that matches its gates
BAD_INSTANCES = {
    "a=1": _with_gate_product(_instance_obj(a=1, gates=[])),
    "C=0": _with_gate_product(_instance_obj(C=0, gates=[])),
    "r=-0.3": _instance_obj(r=-0.3),
    "r=NaN": _instance_obj(r=float("nan")),
    "r=Infinity": _instance_obj(r=float("inf")),
    "r=true": _instance_obj(r=True),
    "gate (0, 3)": _gate_03(),
}


@pytest.mark.parametrize("command", ["prob", "tn cost"])
@pytest.mark.parametrize("case", list(BAD_INSTANCES))
def test_structurally_invalid_instance_file_exits_2(tmp_path, capsys, case, command):
    obj = BAD_INSTANCES[case]
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(obj))
    vacuum = ",".join(["0"] * obj["a"] ** obj["D"])
    argv = (["prob", "--instance", str(path), "--pattern", vacuum] if command == "prob"
            else ["tn", "cost", "--instance", str(path), "--trials", "2"])
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"contract violation: malformed {path}: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["instance", "new", "--r", "nan", "--a", "2", "--D", "2", "--C", "1"],
    ["instance", "new", "--r", "inf", "--a", "2", "--D", "2", "--C", "1"],
    ["photondist", "--modes", "4", "--r", "nan", "--nmax", "10"],
    ["photondist", "--modes", "4", "--r", "0.5", "--nmax", "-1"],
    ["photondist", "--modes", "4", "--r", "0.5", "--nmax", "-1", "--method", "conv"],
    ["photondist", "--modes", "4", "--r", "0.5", "--nmax", "-2"],
    ["photondist", "--modes", "4", "--r", "0.5", "--nmax", "-2", "--method", "conv"],
], ids=["new-r-nan", "new-r-inf", "photondist-r-nan", "nmax-1", "nmax-1-conv",
        "nmax-2", "nmax-2-conv"])
def test_non_finite_squeezing_or_negative_truncation_exits_2(tmp_path, capsys, argv):
    out = tmp_path / "out"
    assert run(argv + ["--out", str(out)]) == 2
    assert not out.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("contract violation: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["NaN", "Infinity"])
@pytest.mark.parametrize("method", ["fast", "enum"])
def test_haf_of_non_finite_matrix_exits_2(tmp_path, capsys, value, method):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(matrix_to_json(np.array([[0.0, value], [value, 0.0]]))))
    assert run(["haf", "--in", str(path), "--method", method]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"contract violation: malformed {path}: "
                            "matrix entries must be finite\n")


def test_instance_file_beyond_mode_limit_exits_3(tmp_path, capsys):
    # refused before a^D is formed, so the check ends at once even at D = 200000
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(_instance_obj(D=200000, gates=[])))
    assert run(["prob", "--instance", str(path), "--pattern", "0,0"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("resource limit: a^D for a=2, D=200000 exceeds the mode "
                            "limit of 4096\n")


def test_lossbudget_path_beyond_float_range_exits_3(tmp_path, capsys):
    out = tmp_path / "b.json"
    assert run(["instance", "lossbudget", "--a", "2", "--D", "2000", "--C", "1",
                "--eta-bs", "0.99", "--eta-unit", "0.999", "--out", str(out)]) == 3
    assert not out.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("resource limit: delay path length for a=2, D=2000 "
                            "exceeds float range\n")


NON_FINITE_BENCH = {
    "fit-nan-wall": ["bench", "fit", "--in", "{nan.csv}"],
    "extrapolate-nan-c": ["bench", "extrapolate", "--model", "{nan.json}",
                          "--rmax-ratio", "2"],
    "extrapolate-nan-ratio": ["bench", "extrapolate", "--model", "{model.json}",
                              "--rmax-ratio", "nan"],
    "extrapolate-c-overflow": ["bench", "extrapolate", "--model", "{model.json}",
                               "--rmax-ratio", "1e-320"],
    "sample-cost-nan-c": ["bench", "sample-cost", "--dist", "{dist.csv}", "--c", "nan"],
    "sample-cost-inf-overhead": ["bench", "sample-cost", "--dist", "{dist.csv}",
                                 "--c", "1e-12", "--overhead", "inf"],
    "sample-cost-overflow": ["bench", "sample-cost", "--dist", "{dist.csv}",
                             "--c", "1e308"],
    "sample-cost-subnormal-c": ["bench", "sample-cost", "--dist", "{dist.csv}",
                                "--c", "1e-310"],
    "sample-cost-subnormal-model": ["bench", "sample-cost", "--dist", "{dist.csv}",
                                    "--model", "{subnormal.json}"],
}


@pytest.mark.parametrize("case", list(NON_FINITE_BENCH))
def test_non_finite_cost_model_or_bench_input_exits_2(tmp_path, capsys, case):
    (tmp_path / "nan.csv").write_text(
        "n,wall_seconds,reps,threads\n" + "".join(
            f"{n},{'nan' if n == 20 else 1e-9 * n ** 3 * 2 ** (n / 2)},3,1\n"
            for n in range(16, 30, 2)))
    (tmp_path / "nan.json").write_text(json.dumps({**MODEL, "c": float("nan")}))
    (tmp_path / "model.json").write_text(json.dumps(MODEL))
    (tmp_path / "subnormal.json").write_text(json.dumps({**MODEL, "c": 1e-310}))
    assert run(["photondist", "--modes", "8", "--r", "0.6", "--nmax", "40",
                "--out", str(tmp_path / "dist.csv")]) == 0
    out = tmp_path / "out.json"
    argv = [str(tmp_path / a[1:-1]) if a.startswith("{") else a
            for a in NON_FINITE_BENCH[case]]
    assert run(argv + ["--out", str(out)]) == 2
    assert not out.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("contract violation: ")
    assert captured.err.count("\n") == 1


def _small_instance(tmp_path):
    path = tmp_path / "inst.json"
    assert run(["instance", "new", "--r", "0.3", "--a", "2", "--D", "2", "--C", "1",
                "--seed", "9", "--out", str(path)]) == 0
    return path


def _assert_one_line_violation(capsys, out):
    assert not out.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("contract violation: ")
    assert captured.err.count("\n") == 1
    return captured.err


def test_instance_file_with_non_unitary_gates_exits_2(tmp_path, capsys):
    # diag(2, 1) then diag(1/2, 1): the product is unitary, the gates are
    # not; prob used to print 0.0 and exit 0, and the tn commands refused
    # the file without naming it or the gate
    gates = [np.diag([2.0, 1.0]), np.diag([0.5, 1.0])]
    inst = tmp_path / "cancelling.json"
    inst.write_text(json.dumps({
        "r": 0.3, "a": 2, "D": 1, "C": 2, "seed": 0, "unitary": matrix_to_json(np.eye(2)),
        "gates": [{"i": 0, "j": 1, "v": matrix_to_json(v)} for v in gates]}))
    out = tmp_path / "p.txt"
    for command in (["prob"], ["tn", "cost"], ["tn", "contract", "--cutoff", "3"]):
        argv = command + ["--instance", str(inst), "--pattern", "1,1", "--out", str(out)]
        assert run(argv) == 2, command
        err = _assert_one_line_violation(capsys, out)
        assert f"{inst}: matrix 0 of the stack is not unitary" in err, command


# every command that reads --seed; numpy refuses a negative seed
NEGATIVE_SEED = {
    "instance new": ["instance", "new", "--r", "0.3", "--a", "2", "--D", "1", "--C", "1",
                     "--seed", "-1"],
    "tn cost": ["tn", "cost", "--instance", "{inst}", "--trials", "2", "--seed", "-5"],
    "tn contract": ["tn", "contract", "--instance", "{inst}", "--cutoff", "4",
                    "--pattern", "0,0,0,0", "--seed", "-1"],
    "bench run": ["bench", "run", "--sizes", "4", "--reps", "1", "--seed", "-2"],
    "hiding spectra": ["hiding", "spectra", "--M", "9", "--K", "9", "--N", "2",
                       "--samples", "2", "--seed", "-1"],
}


@pytest.mark.parametrize("command", list(NEGATIVE_SEED))
def test_negative_seed_exits_2(tmp_path, capsys, command):
    inst = str(_small_instance(tmp_path))
    capsys.readouterr()
    out = tmp_path / "out"
    argv = [inst if a == "{inst}" else a for a in NEGATIVE_SEED[command]]
    assert run(argv + ["--out", str(out)]) == 2
    _assert_one_line_violation(capsys, out)


def test_negative_sample_count_exits_2(tmp_path, capsys):
    out = tmp_path / "out.csv"
    assert run(["hiding", "spectra", "--M", "9", "--K", "9", "--N", "2",
                "--samples", "-1", "--out", str(out)]) == 2
    _assert_one_line_violation(capsys, out)
    cfg = tmp_path / "scan.json"
    cfg.write_text(json.dumps({"samples": -3, "pairs": [{"M": 9, "N": 2, "K": 9}]}))
    assert run(["hiding", "scan", "--config", str(cfg), "--out", str(out)]) == 2
    _assert_one_line_violation(capsys, out)


@pytest.mark.parametrize("config, message", [
    ({"samples": -3, "pairs": []}, "samples must be >= 0, got -3"),
    ({"samples": 0, "bins": 0, "pairs": [{"M": 4, "N": 2, "K": 2}]},
     "bins must be >= 1, got 0"),
], ids=["negative-samples-no-pairs", "zero-bins-zero-samples"])
def test_hiding_scan_checks_an_empty_or_zero_sample_scan(tmp_path, capsys, config, message):
    # the scan is checked before it returns early with no rows
    cfg = tmp_path / "scan.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out.csv"
    assert run(["hiding", "scan", "--config", str(cfg), "--out", str(out)]) == 2
    assert not out.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"contract violation: {message}\n"


# an empty field used to be skipped, so each of these ran on the list
# without it (and "" as the vacuum, or an empty list of sizes)
EMPTY_FIELD = {
    "prob-inner": ["prob", "--instance", "{inst}", "--pattern", "0,1,,1,0"],
    "prob-ends": ["prob", "--instance", "{inst}", "--pattern", ",0,1,1,0,"],
    "tn-contract": ["tn", "contract", "--instance", "{inst}", "--pattern", "0,2,,0,2"],
    "tn-cost": ["tn", "cost", "--instance", "{inst}", "--trials", "2", "--pattern", ""],
    "bench-run-inner": ["bench", "run", "--sizes", "4,,6", "--reps", "1"],
    "bench-run-empty": ["bench", "run", "--sizes", "", "--reps", "1"],
}


@pytest.mark.parametrize("case", list(EMPTY_FIELD))
def test_comma_list_with_an_empty_field_exits_2(tmp_path, capsys, case):
    inst = str(_small_instance(tmp_path))
    capsys.readouterr()
    out = tmp_path / "out"
    argv = [inst if a == "{inst}" else a for a in EMPTY_FIELD[case]]
    assert run(argv + ["--out", str(out)]) == 2
    text = argv[argv.index("--sizes" if case.startswith("bench") else "--pattern") + 1]
    assert repr(text) in _assert_one_line_violation(capsys, out)


def test_tn_contract_cutoff_at_the_photon_total_exits_2(tmp_path, capsys):
    # README's small.json; cutoff 4 used to print a truncated amplitude
    inst = tmp_path / "small.json"
    assert run(["instance", "new", "--r", "0.3", "--a", "2", "--D", "2", "--C", "1",
                "--seed", "7", "--out", str(inst)]) == 0
    out = tmp_path / "amp.txt"
    assert run(["tn", "contract", "--instance", str(inst), "--cutoff", "4",
                "--pattern", "0,2,0,2", "--out", str(out)]) == 2
    _assert_one_line_violation(capsys, out)


@pytest.mark.parametrize("guard", ["nan", "0", "-1"])
def test_tn_contract_memory_guard_not_positive_exits_2(tmp_path, capsys, guard):
    inst = str(_small_instance(tmp_path))
    capsys.readouterr()
    out = tmp_path / "amp.txt"
    assert run(["tn", "contract", "--instance", inst, "--cutoff", "4",
                "--pattern", "0,0,0,0", "--memory-guard", guard, "--out", str(out)]) == 2
    _assert_one_line_violation(capsys, out)


@pytest.mark.parametrize("threads", ["0", "-3", "x"])
@pytest.mark.parametrize("command", ["haf", "prob", "bench run"])
def test_threads_below_one_is_a_usage_error(tmp_path, capsys, command, threads):
    inst = str(_small_instance(tmp_path))
    mat = tmp_path / "m.json"
    mat.write_text(json.dumps(matrix_to_json(np.ones((4, 4)))))
    capsys.readouterr()
    out = tmp_path / "out"
    argv = {"haf": ["haf", "--in", str(mat)],
            "prob": ["prob", "--instance", inst, "--pattern", "0,0,0,0"],
            "bench run": ["bench", "run", "--sizes", "4", "--reps", "1"]}[command]
    assert run(argv + ["--threads", threads, "--out", str(out)]) == 2
    assert not out.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument --threads: expected an integer >= 1, got '{threads}'" in captured.err


@pytest.mark.parametrize("reps, threads", [(0, 1), (3, -3)])
def test_bench_fit_rejects_reps_or_threads_below_one(tmp_path, capsys, reps, threads):
    csv = tmp_path / "bench.csv"
    csv.write_text("n,wall_seconds,reps,threads\n" + "".join(
        f"{n},{1e-9 * n ** 3 * 2 ** (n / 2)},{reps},{threads}\n" for n in range(16, 30, 2)))
    out = tmp_path / "model.json"
    assert run(["bench", "fit", "--in", str(csv), "--out", str(out)]) == 2
    _assert_one_line_violation(capsys, out)
