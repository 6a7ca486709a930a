"""Tests for Fock tensors, network construction, path costs and
contraction, including the cross-engine agreement with the Hafnian route."""
import hashlib
import heapq
import math

import numpy as np
import pytest

from hdgbs.circuit import adjacency, build_instance, light_cone_band
from hdgbs.errors import ContractViolationError, ResourceLimitError
from hdgbs.focknet import (ContractionPlan, FockTensor, TensorNetwork, _greedy_path,
                           _product_size, _search_setup, _size_rule, _sweep_order,
                           _tie_breaks, beamsplitter_tensor, build_network, contract,
                           contraction_cost, fock_basis_vector, replay_cost,
                           squeezed_vacuum_tensor)
from hdgbs.matrices import _seed_sequence, haar_unitary
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


def _beamsplitter_loop(v, cutoff):
    # the direct expansion, term by term: the oracle for the cached term table
    fact = [math.factorial(q) for q in range(2 * cutoff)]
    t = np.zeros((cutoff,) * 4, dtype=complex)
    for n1 in range(cutoff):
        for n2 in range(cutoff):
            for m1 in range(max(0, n1 + n2 - cutoff + 1), min(cutoff, n1 + n2 + 1)):
                m2 = n1 + n2 - m1
                s = 0.0 + 0.0j
                for j in range(max(0, m1 - n2), min(n1, m1) + 1):
                    s += (fact[n1] // (fact[j] * fact[n1 - j])
                          * (fact[n2] // (fact[m1 - j] * fact[n2 - m1 + j]))
                          * v[0, 0] ** j * v[1, 0] ** (n1 - j)
                          * v[0, 1] ** (m1 - j) * v[1, 1] ** (n2 - m1 + j))
                t[m1, m2, n1, n2] = s * math.sqrt(fact[m1] * fact[m2]
                                                  / (fact[n1] * fact[n2]))
    return t


@pytest.mark.parametrize("cutoff", [1, 2, 4, 12])
def test_beamsplitter_matches_direct_expansion_bit_for_bit(cutoff):
    inst = build_instance(0.3, 3, 2, 1, seed=28)
    for g in inst.gates[:4]:
        got = beamsplitter_tensor(g.v, cutoff).values
        assert got.tobytes() == _beamsplitter_loop(g.v, cutoff).tobytes()


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


@pytest.mark.parametrize("law, name", [
    (lambda net: squeezed_vacuum_tensor(0.5, 2.5), "cutoff"),
    (lambda net: beamsplitter_tensor(np.eye(2), 2.5), "cutoff"),
    (lambda net: build_network(build_instance(0.3, 2, 2, 1, seed=0), 2.5), "cutoff"),
    (lambda net: squeezed_vacuum_tensor(0.5, True), "cutoff"),
    (lambda net: contraction_cost(net, 2.5, 0), "trials"),
    (lambda net: contraction_cost(net, True, 0), "trials"),
], ids=["squeezer", "beamsplitter", "network", "squeezer-bool", "trials", "trials-bool"])
def test_cutoff_and_trials_must_be_integers(law, name):
    # 2.5 used to end in a bare TypeError, and trials=True ran one trial
    net = build_network(build_instance(0.3, 2, 1, 1, seed=0), 2, [0, 0])
    with pytest.raises(ContractViolationError, match=f"{name} must be an integer"):
        law(net)


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


def test_empty_network_is_refused():
    # refused where it is made, not later as a plan that does not contract it
    with pytest.raises(ContractViolationError, match="at least one tensor"):
        TensorNetwork((), ())


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
    # 13 tensors; the values come from the search at a fixed seed. The first
    # eight steps are the shared prefix: squeezers 0-3 and basis vectors
    # 9-12 absorbed into their gates in tensor-id order
    plan = contraction_cost(_vacuum_net_11(), trials=4, seed=12)
    assert plan.order == ((0, 4), (1, 13), (2, 5), (3, 6), (7, 9), (8, 10),
                          (11, 17), (12, 18), (14, 19), (16, 21), (15, 22), (20, 23))
    assert plan.est_flops == 684.0


@pytest.mark.parametrize("params, seeds, est_flops, order_sha256", [
    ((0.8, 4, 3, 1), (504, 604), 1.6438810845712715e+28,
     "fe8872337fd63b294e05cee2a72712d319f552d125955396ac798a29fd292db3"),
    ((0.5, 3, 2, 1), (1, 0), 22336.0,
     "d03e4f92cd710bb0911fc1f014fbc0837d7848384c10365f3439a0332fd80c4b"),
], ids=["a4-D3-criterion-10", "a3-D2-small"])
def test_plan_search_pins_plans(params, seeds, est_flops, order_sha256):
    # (instance seed, plan seed), cutoff 4, vacuum pattern, 32 trials: the
    # order and cost of the best plan, pinned so that any change to the
    # search, its tie-breakers or its prefix shows here. The first network
    # is won by the mode-order sweep, the second by a greedy trial
    inst = build_instance(*params, seed=seeds[0])
    net = build_network(inst, cutoff=4, pattern=[0] * inst.modes)
    plan = contraction_cost(net, trials=32, seed=seeds[1])
    assert plan.est_flops == est_flops
    assert hashlib.sha256(repr(plan.order).encode()).hexdigest() == order_sha256


def _oracle_size(mask, dims):
    # the per-bit product, or dim ** popcount when every dim is the same
    if len(set(dims)) == 1:
        return float(dims[0]) ** mask.bit_count()
    total = 1.0
    for bit, dim in enumerate(dims):
        if mask >> bit & 1:
            total *= dim
    return total


def _label_walk(net):
    # label bits by first appearance: each tensor's mask, each bit's dim and
    # the ids of the tensors that carry it
    bits, dims, owners, masks = {}, [], [], []
    for tid, t in enumerate(net.tensors):
        mask = 0
        for lab, dim in zip(t.labels, t.values.shape):
            if lab not in bits:
                bits[lab] = len(dims)
                dims.append(dim)
                owners.append([])
            owners[bits[lab]].append(tid)
            mask |= 1 << bits[lab]
        masks.append(mask)
    return masks, dims, owners


def _oracle_greedy(masks, dims, setup, rng):
    # the search before it priced its own steps: build the order only, from
    # the same shared prefix, neighbour sets and tie-breaker draws, with its
    # own ids and neighbour update
    prefix, first_nbrs, first_pairs = setup
    alive = dict(prefix.alive)
    nbrs = {tid: set(ring) for tid, ring in first_nbrs.items()}
    order = list(prefix.order)
    draws = _tie_breaks(rng, len(first_pairs))
    heap = [(size, next(draws), ia, ib) for size, ia, ib in first_pairs]
    heapq.heapify(heap)
    while len(alive) > 1:
        cand = None
        while heap:
            _, _, ia, ib = heapq.heappop(heap)
            if ia in alive and ib in alive:
                cand = (ia, ib)
                break
        if cand is None:
            cand = tuple(sorted(alive)[:2])
        ia, ib = cand
        tid = len(masks) + len(order)
        order.append(cand)
        alive[tid] = alive.pop(ia) ^ alive.pop(ib)
        joined = (nbrs.pop(ia) | nbrs.pop(ib)) - {ia, ib}
        for nb in joined:
            nbrs[nb] -= {ia, ib}
            nbrs[nb].add(tid)
        nbrs[tid] = joined
        for nb in sorted(joined):
            heapq.heappush(heap, (_oracle_size(alive[tid] ^ alive[nb], dims),
                                  next(draws), nb, tid))
    return tuple(order)


def _oracle_plan_cost(masks, order, dims):
    # a second walk over the finished order, as the search used to price it
    alive = dict(enumerate(masks))
    flops = 0.0
    max_elems = max(_oracle_size(m, dims) for m in masks)
    for step, (ia, ib) in enumerate(order):
        ma, mb = alive.pop(ia), alive.pop(ib)
        alive[len(masks) + step] = ma ^ mb
        flops += _oracle_size(ma | mb, dims)
        max_elems = max(max_elems, _oracle_size(ma ^ mb, dims))
    assert len(alive) == 1
    return flops, max_elems


def _mixed_dims_network():
    # a 3 x 4 grid with bonds of 2, 3 and 5 levels, a rank-1 tensor on every
    # corner and one open wire: every step of the search sees mixed dims
    rows, cols = 3, 4
    labels = {(r, c): [] for r in range(rows) for c in range(cols)}
    dims = {}
    for r in range(rows):
        for c in range(cols):
            for dr, dc in ((0, 1), (1, 0)):
                if r + dr < rows and c + dc < cols:
                    lab = f"b{r}{c}{r + dr}{c + dc}"
                    dims[lab] = (2, 3, 5)[(r + 2 * c + dr) % 3]
                    labels[r, c].append(lab)
                    labels[r + dr, c + dc].append(lab)
    tensors = []
    for corner in ((0, 0), (0, cols - 1), (rows - 1, 0), (rows - 1, cols - 1)):
        lab = f"leg{corner[0]}{corner[1]}"
        dims[lab] = 4
        labels[corner].append(lab)
        tensors.append(FockTensor((lab,), np.ones(4, dtype=complex)))
    labels[1, 1].append("open")
    dims["open"] = 3
    for labs in labels.values():
        tensors.append(FockTensor(tuple(labs), np.ones([dims[lab] for lab in labs],
                                                       dtype=complex)))
    return TensorNetwork(tuple(tensors), ("open",))


def _instance_network(params, seed, cutoff, pattern=None):
    inst = build_instance(*params, seed=seed)
    return build_network(inst, cutoff, [0] * inst.modes if pattern is None else pattern)


@pytest.mark.parametrize("make_net, trials, seed", [
    (lambda: _instance_network((0.8, 6, 3, 1), 506, 4), 8, 606),
    (lambda: _instance_network((0.5, 3, 2, 1), 1, 4), 32, 0),
    (lambda: _instance_network((0.3, 2, 2, 1), 7, 12, [0, 2, 0, 2]), 32, 3),
    (_mixed_dims_network, 32, 5),
], ids=["216-modes", "a3-D2", "a2-pattern-cutoff-12", "mixed-dims"])
def test_search_prices_each_trial_as_the_replay_did(make_net, trials, seed):
    # every trial's (order, est_flops, max_tensor_elems) equals the order-only
    # search followed by a second walk to price it, bit for bit
    net = make_net()
    masks, dims, _ = _label_walk(net)
    setup = _search_setup(net._index)
    for child in _seed_sequence(seed).spawn(trials):
        order, flops, elems = _greedy_path(setup, np.random.default_rng(child))
        oracle = _oracle_greedy(masks, dims, setup, np.random.default_rng(child))
        assert order == oracle
        assert (flops, elems) == _oracle_plan_cost(masks, oracle, dims)
        assert replay_cost(net, ContractionPlan(order, 0.0, 0.0)) == (flops, elems)


@pytest.mark.parametrize("make_net", [
    lambda: _instance_network((0.8, 6, 3, 1), 506, 4), _mixed_dims_network,
], ids=["216-modes", "mixed-dims"])
def test_label_index_matches_a_label_walk(make_net):
    # the index a network builds while checking its wiring: the same masks,
    # owners and per-label dims as a walk done here
    net = make_net()
    masks, dims, owners = _label_walk(net)
    assert net._index.masks == tuple(masks)
    assert net._index.owners == tuple(map(tuple, owners))
    assert [net._index.size(1 << bit) for bit in range(len(dims))] == dims
    assert [net._index.size(m) for m in masks] == [_oracle_size(m, dims) for m in masks]


def test_size_rule_saturates_past_the_float_limit():
    # 1,426 labels of 4 levels, as in the 216-mode network: 4.0 ** 512
    # overflows, so the table stops at the float limit and reads inf beyond
    uniform = _size_rule([4] * 1426)
    for k in (0, 1, 511, 512, 1426):
        mask = (1 << k) - 1
        assert uniform(mask) == _product_size([4] * 1426, mask)
    assert uniform((1 << 511) - 1) == 4.0 ** 511
    assert uniform((1 << 512) - 1) == math.inf
    mixed = _size_rule([4] * 1425 + [2])
    assert mixed((1 << 511) - 1) == 4.0 ** 511
    assert mixed((1 << 1426) - 1) == math.inf


@pytest.mark.parametrize("levels", [[2 ** 58] * 20, [2 ** 58, 2 ** 57] * 10],
                         ids=["uniform", "mixed"])
def test_search_refuses_a_network_no_plan_can_price(levels):
    # twenty open wires of 2^57-2^58 levels each: every plan ends in an outer
    # product of over 2^1150 elements. The tensors are zero-stride views
    tensors = tuple(FockTensor((f"w{q}",), np.broadcast_to(np.complex128(0), (n,)))
                    for q, n in enumerate(levels))
    net = TensorNetwork(tensors, tuple(f"w{q}" for q in range(len(levels))))
    with pytest.raises(ResourceLimitError, match="fits the float range"):
        contraction_cost(net, trials=2, seed=0)


def _sweep_cost(net):
    return replay_cost(net, ContractionPlan(_sweep_order(net), 0.0, 0.0))


@pytest.mark.parametrize("a, est_flops", [
    (4, 1.6438810845712715e+28), (5, 4.3978660151602e+40), (6, 2.418389707800654e+55),
])
def test_sweep_prices_criterion_10_networks(a, est_flops):
    inst = build_instance(0.8, a, 3, 1, seed=500 + a)
    net = build_network(inst, cutoff=4, pattern=[0] * inst.modes)
    assert _sweep_cost(net)[0] == est_flops


def test_sweep_loses_to_the_greedy_on_a_small_network():
    # the other side of the crossover: on this network the search pinned
    # above (a3-D2-small) keeps a greedy plan of 22336 est_flops
    inst = build_instance(0.5, 3, 2, 1, seed=1)
    net = build_network(inst, cutoff=4, pattern=[0] * inst.modes)
    assert _sweep_cost(net)[0] == 5599828.0


@pytest.mark.parametrize("adc", [(3, 2, 1), (4, 2, 1), (3, 3, 1), (4, 3, 1), (5, 3, 1),
                                 (6, 3, 1), (3, 2, 2), (4, 2, 2), (3, 3, 2), (3, 4, 1)])
def test_sweep_largest_tensor_is_the_light_cone(adc):
    # at its widest, the sweep's growing tensor holds 2 * band + 1 open wires
    inst = build_instance(0.5, *adc, seed=1)
    net = build_network(inst, cutoff=4, pattern=[0] * inst.modes)
    _, elems = _sweep_cost(net)
    assert elems == 4.0 ** (2 * light_cone_band(*adc) + 1)


@pytest.mark.parametrize("adc, wires", [((2, 2, 1), 5), ((2, 3, 1), 11), ((2, 4, 1), 23)])
def test_sweep_largest_tensor_at_a_2_is_below_the_light_cone(adc, wires):
    # at a = 2 the formula overcounts: 2 * band + 1 is 7, 15 and 31 here
    inst = build_instance(0.5, *adc, seed=1)
    net = build_network(inst, cutoff=4, pattern=[0] * inst.modes)
    _, elems = _sweep_cost(net)
    assert elems == 4.0 ** wires < 4.0 ** (2 * light_cone_band(*adc) + 1)


def test_sweep_needs_build_network_labels():
    t1 = FockTensor(("e",), np.ones(3, dtype=complex))
    t2 = FockTensor(("e",), np.ones(3, dtype=complex))
    assert _sweep_order(TensorNetwork((t1, t2), ())) is None


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
