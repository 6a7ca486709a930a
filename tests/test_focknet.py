"""Tests for Fock tensors, network construction, path costs and
contraction, including the cross-engine agreement with the Hafnian route."""
import hashlib
import math

import numpy as np
import pytest

from hdgbs.circuit import adjacency, build_instance
from hdgbs.errors import ContractViolationError, ResourceLimitError
from hdgbs.focknet import (ContractionPlan, FockTensor, TensorNetwork,
                           beamsplitter_tensor, build_network, contract,
                           contraction_cost, fock_basis_vector, replay_cost,
                           squeezed_vacuum_tensor)
from hdgbs.matrices import haar_unitary
from hdgbs.probability import (enumerate_patterns, outcome_probability,
                               squeezed_vacuum_dist)


def test_squeezer_cutoff_two_is_vacuum_only():
    t = squeezed_vacuum_tensor(0.8, cutoff=2)
    assert t.values[1] == 0.0
    assert abs(t.values[0]) > 0.0
    assert np.count_nonzero(t.values) == 1


def test_squeezer_odd_amplitudes_vanish():
    t = squeezed_vacuum_tensor(0.9, cutoff=9)
    assert np.all(t.values[1::2] == 0.0)


def test_squeezer_masses_match_distribution():
    t = squeezed_vacuum_tensor(0.8, cutoff=40)
    ref = squeezed_vacuum_dist(0.8, 39).probs
    assert np.abs(np.abs(t.values) ** 2 - ref).max() < 1e-14
    assert 1.0 - np.sum(np.abs(t.values) ** 2) <= 1e-6


def test_beamsplitter_identity_gate():
    t = beamsplitter_tensor(np.eye(2, dtype=complex), cutoff=5)
    ref = np.einsum("ac,bd->abcd", np.eye(5), np.eye(5))
    assert np.abs(t.values - ref).max() < 1e-14


def test_beamsplitter_conserves_photon_number():
    v = haar_unitary(2, seed=3)
    t = beamsplitter_tensor(v, cutoff=6).values
    m1, m2, n1, n2 = np.indices(t.shape)
    off_shell = (m1 + m2) != (n1 + n2)
    assert np.all(t[off_shell] == 0.0)


@pytest.mark.parametrize("total", [0, 1, 2, 3, 4])
def test_beamsplitter_blocks_are_unitary(total):
    cutoff = 6
    v = haar_unitary(2, seed=4)
    t = beamsplitter_tensor(v, cutoff).values
    states = [(k, total - k) for k in range(total + 1)]
    block = np.array([[t[m1, m2, k1, k2] for (k1, k2) in states]
                      for (m1, m2) in states])
    assert np.abs(block @ block.conj().T - np.eye(total + 1)).max() < 1e-10


def test_beamsplitter_rejects_non_unitary():
    with pytest.raises(ContractViolationError):
        beamsplitter_tensor(np.ones((2, 2)), cutoff=4)


def test_network_tensor_count_and_audit():
    inst = build_instance(0.3, 2, 2, 1, seed=5)
    open_net = build_network(inst, cutoff=3)
    assert len(open_net.tensors) == inst.modes + len(inst.gates)
    assert len(open_net.open_labels) == inst.modes
    assert len(set(open_net.open_labels)) == inst.modes
    closed = build_network(inst, cutoff=3, pattern=[0, 1, 0, 1])
    assert len(closed.tensors) == inst.modes + len(inst.gates) + inst.modes
    assert closed.open_labels == ()


def test_network_rejects_pattern_over_cutoff():
    inst = build_instance(0.3, 2, 1, 1, seed=6)
    with pytest.raises(ContractViolationError):
        build_network(inst, cutoff=3, pattern=[3, 0])


def test_network_validation_catches_label_misuse():
    t1 = FockTensor(("x",), np.ones(3, dtype=complex))
    t2 = FockTensor(("x",), np.ones(4, dtype=complex))
    with pytest.raises(ContractViolationError):
        TensorNetwork((t1, t2), ())        # dims disagree
    t3 = FockTensor(("y",), np.ones(3, dtype=complex))
    with pytest.raises(ContractViolationError):
        TensorNetwork((t1, t3), ())        # y open but not declared


def test_single_edge_contraction_cost():
    c = 5
    t1 = FockTensor(("e",), np.ones(c, dtype=complex))
    t2 = FockTensor(("e",), np.ones(c, dtype=complex))
    net = TensorNetwork((t1, t2), ())
    plan = contraction_cost(net, trials=1, seed=0)
    assert plan.est_flops == c
    assert plan.max_tensor_elems == c
    assert contract(net, plan) == pytest.approx(c)


def test_cost_trials_never_increase_best():
    inst = build_instance(0.3, 2, 2, 1, seed=7)
    net = build_network(inst, cutoff=3, pattern=[0] * 4)
    costs = [contraction_cost(net, trials=t, seed=9).est_flops
             for t in (1, 4, 16)]
    assert costs[0] >= costs[1] >= costs[2]


def test_cost_grows_with_lattice_size():
    plans = []
    for a in (2, 3):
        inst = build_instance(0.3, a, 2, 1, seed=8)
        net = build_network(inst, cutoff=2, pattern=[0] * inst.modes)
        plans.append(contraction_cost(net, trials=8, seed=10))
    assert plans[1].est_flops > plans[0].est_flops
    assert plans[1].max_tensor_elems >= plans[0].max_tensor_elems


def _vacuum_net_11():
    inst = build_instance(0.3, 2, 2, 1, seed=11)
    return build_network(inst, cutoff=3, pattern=[0] * 4)


def test_replay_cost_matches_plan():
    net = _vacuum_net_11()
    plan = contraction_cost(net, trials=4, seed=12)
    flops, elems = replay_cost(net, plan)
    assert flops == plan.est_flops
    assert elems == plan.max_tensor_elems


def test_plan_search_is_reproducible():
    # 13 tensors; the values come from the search at a fixed seed
    plan = contraction_cost(_vacuum_net_11(), trials=4, seed=12)
    assert plan.order == ((7, 9), (11, 13), (2, 5), (1, 4), (0, 16), (14, 17),
                          (15, 18), (6, 19), (3, 20), (8, 21), (10, 22), (12, 23))
    assert plan.est_flops == 768.0


@pytest.mark.parametrize("params, seeds, est_flops, order_sha256", [
    ((0.8, 4, 3, 1), (504, 604), 3.2217510533626995e+29,
     "4988f79b49150c136e942ca141cc8a3ec0f1b5813d951763623eda6d5549906c"),
    ((0.5, 3, 2, 1), (1, 0), 22336.0,
     "2ba0bfac15cb05f3a0d193962864abe0fbd026f4a0032ff8d001e5d62090a435"),
], ids=["a4-D3-criterion-10", "a3-D2-small"])
def test_plan_search_pins_plans(params, seeds, est_flops, order_sha256):
    # (instance seed, plan seed), cutoff 4, vacuum pattern, 32 trials: the
    # order and cost the search found before its tie-breakers were drawn
    # in blocks; a faster search must find the same plans
    inst = build_instance(*params, seed=seeds[0])
    net = build_network(inst, cutoff=4, pattern=[0] * inst.modes)
    plan = contraction_cost(net, trials=32, seed=seeds[1])
    assert plan.est_flops == est_flops
    assert hashlib.sha256(repr(plan.order).encode()).hexdigest() == order_sha256


@pytest.mark.parametrize("replay", [replay_cost, contract])
@pytest.mark.parametrize("cut, message", [
    (lambda order: order[:1], "does not contract the network fully"),
    (lambda order: order[:1] * 2, "names a dead tensor"),
    (lambda order: ((0, 0),), "names a dead tensor"),
], ids=["stops-early", "repeats-step", "merges-with-itself"])
def test_bad_plan_is_rejected(replay, cut, message):
    net = _vacuum_net_11()
    plan = contraction_cost(net, trials=4, seed=12)
    bad = ContractionPlan(cut(plan.order), plan.est_flops, plan.max_tensor_elems)
    with pytest.raises(ContractViolationError, match=message):
        replay(net, bad)


def test_contract_counts_match_symbolic_estimate():
    inst = build_instance(0.3, 2, 2, 1, seed=13)
    net = build_network(inst, cutoff=4, pattern=[0, 2, 0, 0])
    plan = contraction_cost(net, trials=4, seed=14)
    amp, ops = contract(net, plan, count_ops=True)
    assert ops == plan.est_flops


def test_contract_vacuum_amplitude():
    # vacuum projection of four r=0.3 squeezers: |amp|^2 = sech^4(0.3)
    inst = build_instance(0.3, 2, 2, 1, seed=15)
    net = build_network(inst, cutoff=12, pattern=[0] * 4)
    amp = contract(net, contraction_cost(net, trials=4, seed=16))
    assert abs(amp) ** 2 == pytest.approx(0.8374756589012734, abs=1e-8)


def test_contract_zero_squeezing_non_vacuum_amplitude():
    inst = build_instance(0.0, 2, 1, 1, seed=17)
    net = build_network(inst, cutoff=4, pattern=[1, 1])
    amp = contract(net, contraction_cost(net, trials=2, seed=18))
    assert amp == pytest.approx(0.0, abs=1e-14)


def test_contract_odd_total_amplitude_is_zero():
    inst = build_instance(0.4, 2, 1, 1, seed=19)
    net = build_network(inst, cutoff=6, pattern=[2, 1])
    amp = contract(net, contraction_cost(net, trials=2, seed=20))
    assert amp == pytest.approx(0.0, abs=1e-14)


def test_contract_replay_is_bit_identical():
    inst = build_instance(0.3, 2, 2, 1, seed=21)
    net = build_network(inst, cutoff=6, pattern=[1, 1, 0, 0])
    plan = contraction_cost(net, trials=4, seed=22)
    assert contract(net, plan) == contract(net, plan)


def test_contract_memory_guard():
    inst = build_instance(0.3, 2, 2, 1, seed=23)
    net = build_network(inst, cutoff=6)      # open outputs
    plan = contraction_cost(net, trials=2, seed=24)
    with pytest.raises(ResourceLimitError):
        contract(net, plan, memory_guard=10.0)


def test_cross_engine_small_instance():
    # |amplitude|^2 from tensor contraction against the Hafnian formula for
    # every pattern with at most 4 photons
    inst = build_instance(0.3, 2, 2, 1, seed=25)
    a = adjacency(inst)
    r_vec = np.full(4, 0.3)
    for pattern in enumerate_patterns(4, 3):
        net = build_network(inst, cutoff=12, pattern=pattern)
        amp = contract(net, contraction_cost(net, trials=2, seed=26))
        ref = outcome_probability(a, r_vec, pattern)
        assert abs(abs(amp) ** 2 - ref) <= 1e-8, pattern


def test_cross_engine_balanced_splitter_nonuniform_squeezing():
    # two squeezers with distinct parameters on a 50:50 splitter, checked
    # against the Hafnian route with a per-mode squeezing vector
    from hdgbs.circuit import adjacency_general

    v = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
    r_vec = [0.31, 0.52]
    cutoff = 12
    a = adjacency_general(v, r_vec)
    for pattern in enumerate_patterns(2, 4):
        tensors = (squeezed_vacuum_tensor(r_vec[0], cutoff, "in0"),
                   squeezed_vacuum_tensor(r_vec[1], cutoff, "in1"),
                   beamsplitter_tensor(v, cutoff, ("out0", "out1", "in0", "in1")),
                   fock_basis_vector(pattern[0], cutoff, "out0"),
                   fock_basis_vector(pattern[1], cutoff, "out1"))
        net = TensorNetwork(tensors, ())
        amp = contract(net, contraction_cost(net, trials=2, seed=0))
        ref = outcome_probability(a, r_vec, pattern)
        assert abs(abs(amp) ** 2 - ref) <= 1e-8, pattern


def test_fock_basis_vector_bounds():
    v = fock_basis_vector(2, 4, "z")
    assert np.array_equal(v.values, np.array([0, 0, 1, 0], dtype=complex))
    with pytest.raises(ContractViolationError):
        fock_basis_vector(4, 4, "z")


def test_plan_rejects_foreign_network():
    inst = build_instance(0.3, 2, 1, 1, seed=27)
    net = build_network(inst, cutoff=3, pattern=[0, 0])
    bogus = ContractionPlan(order=((0, 99),), est_flops=1.0, max_tensor_elems=1.0)
    with pytest.raises(ContractViolationError):
        contract(net, bogus)


@pytest.mark.parametrize("pattern", [[0, 1.5, 0, 0], [0, -1, 0, 0]],
                         ids=["fractional", "negative"])
def test_build_network_rejects_a_pattern_that_is_not_counts(pattern):
    inst = build_instance(0.3, 2, 2, 1, seed=13)
    with pytest.raises(ContractViolationError, match="non-negative integers"):
        build_network(inst, cutoff=4, pattern=pattern)


@pytest.mark.parametrize("r", [float("nan"), float("inf"), -0.3])
def test_squeezer_rejects_non_finite_or_negative_squeezing(r):
    with pytest.raises(ContractViolationError, match="finite and >= 0"):
        squeezed_vacuum_tensor(r, cutoff=4)
