"""Tests for instance construction, adjacency matrices and loss budgets."""
import json
import math

import numpy as np
import pytest

from hdgbs.circuit import (Gate, GbsInstance, LossBudget, adjacency, adjacency_general,
                           build_instance, delay_path_length,
                           expected_gate_count, instance_from_json,
                           instance_to_json, light_cone_band, loss_budget,
                           loss_budget_report)
from hdgbs.errors import ContractViolationError, ResourceLimitError
from hdgbs.matrices import (haar_unitary, matrix_to_json, reduce_by_pattern,
                            symmetry_defect, unitarity_defect)


def test_gate_count_a3_d2():
    inst = build_instance(0.8, 3, 2, 1, seed=42)
    assert inst.modes == 9
    assert len(inst.gates) == (9 - 1) + (9 - 3) == 14


def test_modes_a6_d3():
    inst = build_instance(0.8, 6, 3, 1, seed=7)
    assert inst.modes == 216
    assert len(inst.gates) == expected_gate_count(6, 3, 1) == 215 + 210 + 180


def test_gate_pairing_structure():
    inst = build_instance(0.5, 3, 2, 2, seed=1)
    idx = 0
    for _ in range(2):                   # cycles
        for d in range(2):               # delays 1, a
            tau = 3 ** d
            for i in range(9 - tau):
                g = inst.gates[idx]
                assert (g.i, g.j) == (i, i + tau)
                assert unitarity_defect(g.v) < 1e-12
                idx += 1
    assert idx == len(inst.gates)


@pytest.mark.parametrize("params", [(2, 2, 1), (3, 2, 1), (2, 3, 2), (6, 3, 1)])
def test_instance_unitarity(params):
    a, dim, cycles = params
    inst = build_instance(0.8, a, dim, cycles, seed=5)
    assert unitarity_defect(inst.unitary) <= 1e-10


def test_light_cone_band_values():
    assert light_cone_band(3, 2, 1) == 4          # 1 + 3
    assert light_cone_band(6, 3, 1) == 43         # 1 + 6 + 36
    assert light_cone_band(3, 2, 2) == 8


@pytest.mark.parametrize("params", [(2, 2, 1), (3, 2, 1), (2, 3, 2), (6, 3, 1)])
def test_band_structure(params):
    # ascending gate order only moves amplitude down by the band total, so
    # entries above the diagonal beyond that offset are exactly zero while
    # the lower side fills in
    a, dim, cycles = params
    inst = build_instance(0.8, a, dim, cycles, seed=12)
    band = light_cone_band(a, dim, cycles)
    m = inst.modes
    u = inst.unitary
    upper = np.triu_indices(m, k=band + 1)
    assert upper[0].size == 0 or np.abs(u[upper]).max() == 0.0
    lower = np.tril_indices(m, k=-(band + 1))
    if lower[0].size:
        filled = np.count_nonzero(np.abs(u[lower]) > 1e-300) / lower[0].size
        assert filled > 0.9


def test_mode_limit_guard():
    with pytest.raises(ResourceLimitError):
        build_instance(0.8, 10, 5, 1, seed=0)     # 10^5 modes
    # a directly constructed instance is bounded too, and a D far above
    # log2(MODE_LIMIT) is refused before a^D is formed
    for dim in (13, 20000):
        with pytest.raises(ResourceLimitError, match=f"a=2, D={dim} exceeds"):
            GbsInstance(0.3, 2, dim, 1, 0, ())
    # build_instance refuses before any gate is drawn
    with pytest.raises(ResourceLimitError, match="mode limit of 4096$"):
        build_instance(0.3, 2, 200000, 1, seed=0)


def test_build_rejects_bad_parameters():
    with pytest.raises(ContractViolationError):
        build_instance(0.8, 1, 2, 1, seed=0)
    with pytest.raises(ContractViolationError):
        build_instance(-0.1, 2, 2, 1, seed=0)


@pytest.mark.parametrize("args, message", [
    ((0.3, 2, 2, True, 2), "cycle count C must be an integer, got True"),
    ((0.3, 2, 2, 1, 2.7), "seed must be an integer, got 2.7"),
    ((0.3, 2.0, 2, 1, 2), "lattice size a must be an integer, got 2.0"),
    ((0.3, 2, True, 1, 2), "lattice dimension D must be an integer, got True"),
], ids=["bool-cycles", "fractional-seed", "float-size", "bool-dimension"])
def test_build_rejects_bools_and_fractions_as_counts(args, message):
    # (0.3, 2, 2, True, 2.7) used to build an instance with seed 2 whose
    # JSON, holding "C": true, instance_from_json refused
    with pytest.raises(ContractViolationError, match=message):
        build_instance(*args)


@pytest.mark.parametrize("seed", [2.7, True], ids=["fractional", "bool"])
def test_instance_rejects_a_non_integer_seed(seed):
    # such a seed used to be kept and written to JSON, which
    # instance_from_json then refused
    inst = build_instance(0.3, 2, 2, 1, seed=7)
    with pytest.raises(ContractViolationError, match=f"seed must be an integer, got {seed}"):
        GbsInstance(inst.r, inst.a, inst.dim, inst.cycles, seed, inst.gates)


def test_instance_stores_numpy_integers_as_ints():
    # a numpy integer count or gate index used to be stored as given, and
    # json.dumps of the instance then raised TypeError
    inst = build_instance(0.3, 2, 2, 1, seed=7)
    i64 = np.int64
    gates = tuple(Gate(i64(g.i), i64(g.j), g.v) for g in inst.gates)
    again = GbsInstance(inst.r, i64(inst.a), i64(inst.dim), i64(inst.cycles),
                        i64(inst.seed), gates)
    assert json.dumps(instance_to_json(again)) == json.dumps(instance_to_json(inst))
    built = build_instance(0.3, i64(2), i64(2), i64(1), i64(7))
    assert json.dumps(instance_to_json(built)) == json.dumps(instance_to_json(inst))


def test_instance_gate_matrices_are_read_only_copies():
    # a write to a stored gate matrix used to change the instance after its
    # unitary was checked, and its JSON was then refused
    inst = build_instance(0.3, 2, 2, 1, seed=7)
    given = [list(row) for row in inst.gates[0].v]
    again = GbsInstance(inst.r, inst.a, inst.dim, inst.cycles, inst.seed,
                        (inst.gates[0]._replace(v=given),) + inst.gates[1:])
    given[0][0] = 5.0
    with pytest.raises(ValueError, match="read-only"):
        again.gates[1].v[0, 0] = 5.0
    assert json.dumps(instance_to_json(again)) == json.dumps(instance_to_json(inst))


def test_lattice_helpers_reject_a_bool_count():
    with pytest.raises(ContractViolationError, match="cycle count C must be an integer"):
        light_cone_band(2, 2, True)
    with pytest.raises(ContractViolationError, match="lattice size a must be an integer"):
        loss_budget(2.0, 2, 1, LossBudget(eta_bs=0.9, eta_unit=0.998))


def test_adjacency_zero_squeezing():
    inst = build_instance(0.0, 2, 2, 1, seed=4)
    assert np.abs(adjacency(inst)).max() == 0.0


def test_adjacency_matches_general_form():
    inst = build_instance(0.8, 3, 2, 1, seed=6)
    a1 = adjacency(inst)
    a2 = adjacency_general(inst.unitary, np.full(inst.modes, 0.8))
    assert np.abs(a1 - a2).max() < 1e-12
    assert symmetry_defect(a1) < 1e-12


def test_adjacency_spectral_norm_is_tanh_r():
    inst = build_instance(0.8, 2, 3, 1, seed=8)
    sv = np.linalg.svd(adjacency(inst), compute_uv=False)
    assert np.abs(sv - math.tanh(0.8)).max() < 1e-10    # U U^T is unitary


def test_adjacency_general_identity_unitary():
    r = [0.1, 0.5, 0.9]
    a = adjacency_general(np.eye(3, dtype=complex), r)
    assert np.abs(a - np.diag(np.tanh(r))).max() < 1e-15


def test_adjacency_general_all_vacuum():
    u = haar_unitary(4, seed=10)
    assert np.abs(adjacency_general(u, [0.0] * 4)).max() == 0.0


def test_adjacency_general_first_k_squeezed_matches_projected_product():
    u = haar_unitary(8, seed=11)
    r, k = 0.7, 3
    r_vec = [r] * k + [0.0] * 5
    pattern = np.array([1, 0, 1, 0, 0, 0, 1, 1])
    via_adjacency = reduce_by_pattern(adjacency_general(u, r_vec), pattern)
    v = u[pattern == 1, :k]
    via_product = math.tanh(r) * (v @ v.T)
    assert np.abs(via_adjacency - via_product).max() < 1e-12


def test_adjacency_general_length_mismatch():
    with pytest.raises(ContractViolationError):
        adjacency_general(np.eye(3), [0.1, 0.2])


def test_loss_budget_mode_follows_eta_recirc():
    # the loop transmission is what selects the recirculator, so no
    # combination of inputs can contradict the mode
    assert LossBudget(eta_bs=0.9, eta_unit=0.998).mode == "copies"
    assert LossBudget(eta_bs=0.9, eta_unit=0.998, eta_recirc=0.5).mode == "recirculator"
    report = loss_budget_report(6, 3, 1, LossBudget(eta_bs=0.9, eta_unit=0.998))
    assert report["mode"] == "copies" and "recirculator_length" not in report


def test_loss_budget_refuses_path_lengths_beyond_float_range():
    # the transmissions raise each eta to a path length, which must fit a
    # float; 2^1024 - 1 at (a, D) = (2, 1024) is the first that does not
    copies = LossBudget(eta_bs=0.99, eta_unit=0.999)
    recirc = LossBudget(eta_bs=0.99, eta_unit=0.999, eta_recirc=0.99)
    for budget in (copies, recirc):
        for dim in (1024, 2000, 200000):
            with pytest.raises(ResourceLimitError, match="exceeds float range"):
                loss_budget_report(2, dim, 1, budget)
        assert loss_budget_report(2, 1023, 1, budget)["path_length_exact"] == 2 ** 1023 - 1
    # at a = 2^600 the path fits but the recirculation loop does not
    assert loss_budget_report(2 ** 600, 2, 1, copies)["path_length_exact"] == 2 ** 600 + 1
    with pytest.raises(ResourceLimitError, match="exceeds float range"):
        loss_budget_report(2 ** 600, 2, 1, recirc)


def test_loss_budget_perfect_components():
    budget = LossBudget(eta_bs=1.0, eta_unit=1.0)
    assert loss_budget(6, 3, 1, budget) == 1.0


def test_loss_budget_copies_formula():
    budget = LossBudget(eta_bs=0.9, eta_unit=0.998)
    got = loss_budget(6, 3, 1, budget)
    assert got == pytest.approx(0.9 ** 3 * 0.998 ** 43, rel=1e-12)
    report = loss_budget_report(6, 3, 1, budget)
    assert report["path_length_exact"] == delay_path_length(6, 3) == 43
    assert report["path_length_approx"] == 36
    assert report["total_transmission_approx"] == pytest.approx(
        0.9 ** 3 * 0.998 ** 36, rel=1e-12)


def test_loss_budget_monotone_in_eta_unit():
    lo = loss_budget(6, 3, 1, LossBudget(eta_bs=0.9, eta_unit=0.99))
    hi = loss_budget(6, 3, 1, LossBudget(eta_bs=0.9, eta_unit=0.998))
    assert lo < hi


def test_loss_budget_monotone_in_eta_bs():
    lo = loss_budget(6, 3, 1, LossBudget(eta_bs=0.85, eta_unit=0.998))
    hi = loss_budget(6, 3, 1, LossBudget(eta_bs=0.9, eta_unit=0.998))
    assert lo < hi


def test_loss_budget_cycles_square_the_transmission():
    budget = LossBudget(eta_bs=0.9, eta_unit=0.998)
    one = loss_budget(4, 2, 1, budget)
    two = loss_budget(4, 2, 2, budget)
    assert two == pytest.approx(one ** 2, rel=1e-12)


def test_loss_budget_recirculator():
    budget = LossBudget(eta_bs=0.9, eta_unit=0.998, eta_recirc=0.995)
    report = loss_budget_report(6, 3, 1, budget)
    assert report["mode"] == "recirculator"
    copies = 0.9 ** 3 * 0.998 ** 43
    loop_len = 216 - 43
    assert report["recirculator_length"] == loop_len
    assert report["total_transmission"] == pytest.approx(
        copies * 0.995 ** loop_len, rel=1e-12)


def test_loss_budget_rejects_bad_transmission():
    with pytest.raises(ContractViolationError):
        LossBudget(eta_bs=0.0, eta_unit=0.9)
    with pytest.raises(ContractViolationError):
        LossBudget(eta_bs=0.9, eta_unit=1.2)


def test_instance_json_round_trip():
    inst = build_instance(0.6, 2, 2, 1, seed=17)
    back = instance_from_json(instance_to_json(inst))
    assert back.r == inst.r and back.a == inst.a
    assert back.dim == inst.dim and back.cycles == inst.cycles
    assert np.array_equal(back.unitary, inst.unitary)
    assert len(back.gates) == len(inst.gates)
    for g1, g2 in zip(back.gates, inst.gates):
        assert (g1.i, g1.j) == (g2.i, g2.j)
        assert np.array_equal(g1.v, g2.v)


def test_instance_json_rejects_wrong_gate_count():
    obj = instance_to_json(build_instance(0.6, 2, 2, 1, seed=18))
    obj["gates"] = obj["gates"][:-1]
    with pytest.raises(ContractViolationError):
        instance_from_json(obj)


SWAP = matrix_to_json(np.array([[0.0, 1.0], [1.0, 0.0]]))


@pytest.mark.parametrize("field, value, message", [
    # the swap is a 2 x 2 unitary and the stored unitary stays unitary,
    # so only the gate product tells the two circuits apart
    ("v", SWAP, "product of the gates"),
    ("j", 4, "2 x 2 gate on 4 modes"),
    ("unitary", matrix_to_json(np.eye(3)), "expected 4x4"),
])
def test_instance_json_rejects_inconsistent_file(field, value, message):
    obj = instance_to_json(build_instance(0.3, 2, 2, 1, seed=7))
    if field == "unitary":
        obj["unitary"] = value
    else:
        obj["gates"][0][field] = value
    with pytest.raises(ContractViolationError, match=message):
        instance_from_json(obj)


def test_build_determinism():
    a = build_instance(0.8, 2, 3, 1, seed=23)
    b = build_instance(0.8, 2, 3, 1, seed=23)
    assert np.array_equal(a.unitary, b.unitary)


def test_loaded_unitary_equals_built_bit_for_bit():
    # the stored unitary is only a checked copy: a loaded instance keeps the
    # product of its gates, which equals the built one to the bit (the
    # parsed copy differed from it in signed zeros)
    inst = build_instance(0.4, 3, 2, 1, seed=5)
    back = instance_from_json(json.loads(json.dumps(instance_to_json(inst))))
    assert back.unitary.tobytes() == inst.unitary.tobytes()
    assert not back.unitary.flags.writeable


def test_instance_forms_its_unitary_from_the_gates():
    inst = build_instance(0.5, 2, 2, 2, seed=9)
    again = GbsInstance(inst.r, inst.a, inst.dim, inst.cycles, inst.seed, inst.gates)
    assert again.unitary.tobytes() == inst.unitary.tobytes()
    assert not again.unitary.flags.writeable
    with pytest.raises(TypeError):      # the unitary is computed, never passed in
        GbsInstance(inst.r, inst.a, inst.dim, inst.cycles, inst.seed, inst.gates,
                    unitary=inst.unitary)
    obj = instance_to_json(inst)
    obj["unitary"] = matrix_to_json(inst.unitary + 1e-12)
    kept = instance_from_json(obj)
    assert kept.unitary.tobytes() == inst.unitary.tobytes()     # the copy is dropped


@pytest.mark.parametrize("change, message", [
    (lambda gates: gates[:1] + (gates[1]._replace(j=3),) + gates[2:], "delay-line order"),
    (lambda gates: gates[::-1], "delay-line order"),
    (lambda gates: gates[:1] + (gates[1]._replace(v=np.eye(3)),) + gates[2:],
     "2 x 2 gate on 4 modes"),
    (lambda gates: gates + gates[:1], "gate list has 6 entries"),
], ids=["off-order-pair", "reversed", "3x3-matrix", "extra-gate"])
def test_instance_rejects_gates_off_the_delay_line_order(change, message):
    inst = build_instance(0.3, 2, 2, 1, seed=7)
    with pytest.raises(ContractViolationError, match=message):
        GbsInstance(inst.r, inst.a, inst.dim, inst.cycles, inst.seed, change(inst.gates))


@pytest.mark.parametrize("unitary, message", [
    (lambda u: np.full((4, 4), np.nan), "matrix entries must be finite"),
    (lambda u: np.eye(5), "expected 4x4"),
    (lambda u: u + 1e-9, "product of the gates"),
], ids=["NaN", "wrong-shape", "past-tolerance"])
def test_instance_rejects_a_unitary_that_is_not_the_gate_product(unitary, message):
    # only a file stores a unitary; it must be the gate product
    inst = build_instance(0.3, 2, 2, 1, seed=7)
    obj = instance_to_json(inst)
    obj["unitary"] = matrix_to_json(unitary(inst.unitary))
    with pytest.raises(ContractViolationError, match=message):
        instance_from_json(obj)


def test_instance_rejects_gates_whose_product_is_not_unitary():
    # a built instance is checked like a loaded one: gates scaled by 2 fail
    inst = build_instance(0.3, 2, 2, 1, seed=7)
    scaled = tuple(g._replace(v=2 * g.v) for g in inst.gates)
    with pytest.raises(ContractViolationError, match="not unitary"):
        GbsInstance(inst.r, inst.a, inst.dim, inst.cycles, inst.seed, scaled)


# two non-unitary gates on the (2, 1, 2) lattice whose product is the identity
CANCELLING_GATES = (Gate(0, 1, np.diag([2.0, 1.0])), Gate(0, 1, np.diag([0.5, 1.0])))


def test_instance_rejects_non_unitary_gates_whose_product_is_unitary():
    # such an instance used to be built: its probabilities read the
    # identity, while its networks refused the first gate
    with pytest.raises(ContractViolationError, match="matrix 0 of the stack is not unitary"):
        GbsInstance(0.3, 2, 1, 2, 0, CANCELLING_GATES)
    obj = {"r": 0.3, "a": 2, "D": 1, "C": 2, "seed": 0,
           "unitary": matrix_to_json(np.eye(2)),
           "gates": [{"i": g.i, "j": g.j, "v": matrix_to_json(g.v)} for g in CANCELLING_GATES]}
    with pytest.raises(ContractViolationError, match="not unitary"):
        instance_from_json(obj)


def test_instance_names_the_first_non_unitary_gate():
    # gates 3 and 4 both fail; the refusal names gate 3 with its own defect
    inst = build_instance(0.3, 2, 2, 1, seed=7)
    gates = list(inst.gates)
    gates[3] = gates[3]._replace(v=gates[3].v * (1 + 1e-6))
    gates[4] = gates[4]._replace(v=gates[4].v * 2)
    with pytest.raises(ContractViolationError,
                       match=r"matrix 3 of the stack is not unitary \(defect 2\.000e-06 "):
        GbsInstance(inst.r, inst.a, inst.dim, inst.cycles, inst.seed, tuple(gates))


@pytest.mark.parametrize("r", [float("nan"), float("inf"), -0.3])
def test_build_rejects_non_finite_or_negative_squeezing(r):
    with pytest.raises(ContractViolationError, match="finite and >= 0"):
        build_instance(r, 2, 2, 1, seed=0)
    with pytest.raises(ContractViolationError, match="finite and >= 0"):
        adjacency_general(np.eye(2), [0.5, r])


def test_instance_json_rejects_non_numeric_squeezing():
    obj = instance_to_json(build_instance(0.3, 2, 2, 1, seed=7))
    obj["r"] = True
    with pytest.raises(ContractViolationError, match="must be real numbers"):
        instance_from_json(obj)
