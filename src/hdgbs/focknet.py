"""Fock-basis tensor networks for amplitude computation and contraction
cost estimation.

A GBS instance becomes a network of one rank-1 squeezer tensor per mode
and one rank-4 beam-splitter tensor per gate, wired in gate order, with
output wires either left open or closed by photon-count basis vectors.

Contraction plans are priced symbolically (no tensor is materialized
during the search), which is how lattice sizes far beyond any feasible
contraction can still be priced. A search sets up each network once:
tensor adjacency sets, and a shared plan prefix that absorbs every
rank-1 tensor into its only neighbour. Randomized greedy trials continue
from there, each contracting the pair of neighbours with the smallest
intermediate and pricing every step as it takes it, so no trial is
replayed. The mode-order sweep, a caterpillar plan that follows the
circuit's band, is priced beside them and kept when strictly cheaper; it
wins on large delay-line networks and the greedy on small ones. Element
counts saturate at inf past the float range; a search whose best plan
is still infinite is refused as a resource limit.
"""
import functools
import heapq
import math
import re
from dataclasses import dataclass, field

import numpy as np

from .circuit import GbsInstance
from .errors import ContractViolationError, ResourceLimitError
from .matrices import _counts, _seed_sequence, _squeezing, assert_unitary

MEMORY_GUARD_ELEMS = 10 ** 8
# a wire of mode q after its hop-th gate, as build_network labels it
_WIRE = re.compile(r"m(\d+)\.\d+")


@dataclass(frozen=True)
class FockTensor:
    """Dense tensor with one label per index; every axis has the same
    length only by convention of the builders, not by requirement."""

    labels: tuple
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        if len(self.labels) != self.values.ndim:
            raise ContractViolationError(
                f"{len(self.labels)} labels for a rank-{self.values.ndim} tensor")
        if len(set(self.labels)) != len(self.labels):
            raise ContractViolationError(f"repeated label within tensor: {self.labels}")

    @property
    def size(self) -> int:
        return self.values.size


@dataclass(frozen=True)
class TensorNetwork:
    tensors: tuple
    open_labels: tuple

    def __post_init__(self):
        seen: dict = {}
        for t in self.tensors:
            for lab, dim in zip(t.labels, t.values.shape):
                seen.setdefault(lab, []).append(dim)
        for lab, dims in seen.items():
            if len(set(dims)) != 1:
                raise ContractViolationError(f"label {lab!r} has mismatched dims {dims}")
            expected = 1 if lab in self.open_labels else 2
            if len(dims) != expected:
                raise ContractViolationError(
                    f"label {lab!r} appears {len(dims)} times, expected {expected}")
        missing = set(self.open_labels) - set(seen)
        if missing:
            raise ContractViolationError(f"open labels {missing} not present")


@dataclass(frozen=True)
class ContractionPlan:
    """Pairwise contraction order in single-assignment ids: tensors are
    numbered 0..T-1, and step k merges (i, j) into id T + k. ``_replay``
    is the one place that defines this scheme and the rules a valid plan
    obeys."""

    order: tuple
    est_flops: float
    max_tensor_elems: float


def squeezed_vacuum_tensor(r: float, cutoff: int, label: str = "out") -> FockTensor:
    """Rank-1 tensor of squeezed-vacuum amplitudes truncated to ``cutoff``
    levels: amp(2k) = (-tanh r)^k sqrt((2k)!) / (2^k k! sqrt(cosh r)),
    zero on odd levels."""
    _squeezing(r)
    if cutoff < 1:
        raise ContractViolationError(f"cutoff must be >= 1, got {cutoff}")
    amp = np.zeros(cutoff, dtype=complex)
    for k in range((cutoff - 1) // 2 + 1):
        amp[2 * k] = ((-math.tanh(r)) ** k
                      * math.exp(0.5 * math.lgamma(2 * k + 1) - math.lgamma(k + 1)
                                 - k * math.log(2.0) - 0.5 * math.log(math.cosh(r))))
    return FockTensor((label,), amp)


@functools.lru_cache(maxsize=4)
def _beamsplitter_terms(cutoff: int):
    """The gate-independent part of ``beamsplitter_tensor``: for each entry
    (m1, m2, n1, n2) that can be non-zero, its terms as (integer
    coefficient, exponents of v00, v10, v01, v11), and the factor
    sqrt(m1! m2! / (n1! n2!))."""
    fact = [math.factorial(q) for q in range(2 * cutoff)]
    table = []
    for n1 in range(cutoff):
        for n2 in range(cutoff):
            for m1 in range(max(0, n1 + n2 - cutoff + 1), min(cutoff, n1 + n2 + 1)):
                m2 = n1 + n2 - m1
                terms = tuple(
                    (fact[n1] // (fact[j] * fact[n1 - j])
                     * (fact[n2] // (fact[m1 - j] * fact[n2 - m1 + j])),
                     j, n1 - j, m1 - j, n2 - m1 + j)
                    for j in range(max(0, m1 - n2), min(n1, m1) + 1))
                table.append(((m1, m2, n1, n2), terms,
                              math.sqrt(fact[m1] * fact[m2] / (fact[n1] * fact[n2]))))
    return tuple(table)


def beamsplitter_tensor(v: np.ndarray, cutoff: int,
                        labels=("o1", "o2", "i1", "i2")) -> FockTensor:
    """Rank-4 Fock representation <m1 m2|B(V)|n1 n2> of a two-mode
    beam-splitter, all indices below ``cutoff``.

    Matrix elements come from the exact combinatorial expansion of the
    transformed creation operators, evaluated at full precision and then
    truncated, so elements with m1 + m2 != n1 + n2 are exactly zero and
    every total-photon block whose total fits under the cutoff is itself
    unitary.
    """
    v = np.asarray(v, dtype=complex)
    if v.shape != (2, 2):
        raise ContractViolationError(f"expected a 2x2 matrix, got {v.shape}")
    assert_unitary(v)
    if cutoff < 1:
        raise ContractViolationError(f"cutoff must be >= 1, got {cutoff}")
    # numpy scalar arithmetic term by term, in the order of the expansion:
    # array arithmetic would change the last bits
    p00, p10, p01, p11 = ([v[p, q] ** k for k in range(cutoff)]
                          for p, q in ((0, 0), (1, 0), (0, 1), (1, 1)))
    t = np.zeros((cutoff,) * 4, dtype=complex)
    for index, terms, scale in _beamsplitter_terms(cutoff):
        s = 0.0 + 0.0j
        for coef, k00, k10, k01, k11 in terms:
            s += coef * p00[k00] * p10[k10] * p01[k01] * p11[k11]
        t[index] = s * scale
    return FockTensor(tuple(labels), t)


def fock_basis_vector(level: int, cutoff: int, label: str) -> FockTensor:
    if not 0 <= level < cutoff:
        raise ContractViolationError(
            f"measured level {level} does not fit under cutoff {cutoff}")
    e = np.zeros(cutoff, dtype=complex)
    e[level] = 1.0
    return FockTensor((label,), e)


def build_network(instance: GbsInstance, cutoff: int,
                  pattern=None) -> TensorNetwork:
    """Network for one amplitude (pattern given) or the open output state.

    One squeezer tensor per mode, one beam-splitter tensor per gate wired
    in gate order; with a pattern, every output wire is closed by the
    corresponding photon-count basis vector.
    """
    modes = instance.modes
    wire = [f"m{q}.0" for q in range(modes)]
    hops = [0] * modes
    tensors = [squeezed_vacuum_tensor(instance.r, cutoff, wire[q])
               for q in range(modes)]
    for g in instance.gates:
        new_i = f"m{g.i}.{hops[g.i] + 1}"
        new_j = f"m{g.j}.{hops[g.j] + 1}"
        tensors.append(beamsplitter_tensor(g.v, cutoff,
                                           (new_i, new_j, wire[g.i], wire[g.j])))
        wire[g.i], wire[g.j] = new_i, new_j
        hops[g.i] += 1
        hops[g.j] += 1
    if pattern is None:
        return TensorNetwork(tuple(tensors), tuple(wire))
    counts = _counts(pattern, modes)
    for q in range(modes):
        tensors.append(fock_basis_vector(int(counts[q]), cutoff, wire[q]))
    return TensorNetwork(tuple(tensors), ())


def _size_rule(dims):
    """The element count of a tensor as a function of its label bitmask,
    built once per network and read by the search, the pricing and
    ``contract`` alike.

    Counts saturate at inf instead of raising. Uniform dims read a table
    of ``dim ** k`` by bit count k, computed up to the float limit and inf
    beyond it; mixed dims multiply the dims per label, lowest bit first.
    """
    if dims and len(set(dims)) == 1:
        uniform = float(dims[0])
        table = []
        for k in range(len(dims) + 1):
            try:
                table.append(uniform ** k)
            except OverflowError:
                table.extend([math.inf] * (len(dims) + 1 - k))
                break
        return lambda mask: table[mask.bit_count()]
    return functools.partial(_product_size, dims)


def _product_size(dims, mask: int) -> float:
    total = 1.0
    mm = mask
    while mm:
        low = mm & -mm
        total *= dims[low.bit_length() - 1]
        mm ^= low
    return total


def _merge(alive, nbrs, order, n_tensors: int, ia: int, ib: int):
    """Contract alive tensors ia and ib into the next free id, updating the
    label masks, the neighbour sets and the order; returns (id, neighbours).
    A label has at most two owners, so the merged tensor's neighbours are
    exactly those of ia and ib other than the pair itself."""
    tid = n_tensors + len(order)
    order.append((ia, ib) if ia < ib else (ib, ia))
    alive[tid] = alive.pop(ia) ^ alive.pop(ib)
    joined = (nbrs.pop(ia) | nbrs.pop(ib)) - {ia, ib}
    for nb in joined:
        ring = nbrs[nb]
        ring.discard(ia)
        ring.discard(ib)
        ring.add(tid)
    nbrs[tid] = joined
    return tid, joined


def _search_setup(masks, size):
    """What every greedy trial over one network starts from.

    The tensor adjacency sets come from the label owners. Then every
    rank-1 tensor (a squeezer or a basis vector) is absorbed into its only
    neighbour, in tensor-id order: such a step shrinks the neighbour, so
    every trial shares it as its plan prefix. Returns that prefix, the
    alive label masks and neighbour sets after it, (size, ia, ib) for
    each remaining pair of neighbours in ascending (ia, ib), the order in
    which the trials draw their tie-breakers for them, and the prefix's
    running (est_flops, max_elems) as ``_plan_cost`` counts them.
    """
    owners: dict[int, list] = {}
    for tid, mask in enumerate(masks):
        mm = mask
        while mm:
            low = mm & -mm
            owners.setdefault(low, []).append(tid)
            mm ^= low
    nbrs = {tid: set() for tid in range(len(masks))}
    for tids in owners.values():
        if len(tids) == 2:
            ia, ib = tids
            nbrs[ia].add(ib)
            nbrs[ib].add(ia)
    alive = dict(enumerate(masks))
    prefix: list = []
    flops = 0.0
    max_elems = max((size(m) for m in masks), default=1.0)
    for tid, mask in enumerate(masks):
        # a rank-1 tensor can already be gone, absorbed by a rank-1 partner
        if mask.bit_count() == 1 and tid in alive and nbrs[tid]:
            nb = next(iter(nbrs[tid]))
            flops += size(alive[tid] | alive[nb])
            max_elems = max(max_elems, size(alive[tid] ^ alive[nb]))
            _merge(alive, nbrs, prefix, len(masks), tid, nb)
    pairs = [(size(alive[ia] ^ alive[ib]), ia, ib)
             for ia in sorted(alive) for ib in sorted(nbrs[ia]) if ia < ib]
    return prefix, alive, nbrs, pairs, flops, max_elems


def _tie_breaks(rng, first: int):
    """Uniform doubles, the same ones successive ``rng.random()`` calls give,
    drawn in blocks: ``first`` of them, then blocks of at least 16."""
    yield from rng.random(first).tolist()
    block = max(first, 16)
    while True:
        yield from rng.random(block).tolist()


def _greedy_path(n_tensors: int, size, setup, rng):
    """One randomized greedy search over a network given as label bitmasks,
    continuing from its ``_search_setup``.

    Returns (order, est_flops, max_elems), priced while the order is built
    and equal to what ``_plan_cost`` gives for it. At every step the
    candidate pair of neighbours producing the smallest intermediate is
    contracted, with exact ties broken uniformly at random; that tie noise
    is the only source of variation between trials.
    """
    prefix, first_alive, first_nbrs, first_pairs, flops, max_elems = setup
    alive = dict(first_alive)
    nbrs = {tid: set(ring) for tid, ring in first_nbrs.items()}
    order = list(prefix)
    draws = _tie_breaks(rng, len(first_pairs))
    heap = [(elems, next(draws), ia, ib) for elems, ia, ib in first_pairs]
    heapq.heapify(heap)
    heappop, heappush = heapq.heappop, heapq.heappush
    while len(alive) > 1:
        # ids are never reused, so a pair whose two tensors are both still
        # alive is still a valid candidate, and its recorded size is that
        # of the tensor it makes
        while heap:
            elems, _, ia, ib = heappop(heap)
            if ia in alive and ib in alive:
                break
        else:
            # disconnected remainder: outer-product the two smallest ids
            ia, ib = sorted(alive)[:2]
            elems = size(alive[ia] ^ alive[ib])
        flops += size(alive[ia] | alive[ib])
        if elems > max_elems:
            max_elems = elems
        tid, joined = _merge(alive, nbrs, order, n_tensors, ia, ib)
        new_mask = alive[tid]
        for nb in sorted(joined):
            heappush(heap, (size(new_mask ^ alive[nb]), next(draws), nb, tid))
    return tuple(order), flops, max_elems


def _sweep_order(network: TensorNetwork):
    """Caterpillar plan in mode order, or None for a network with a label
    other than the ``m{q}.{hop}`` wires ``build_network`` makes.

    Tensors are taken by the largest mode they touch, ties broken by
    tensor id, and each is absorbed into one growing tensor. On a banded
    circuit this keeps the open wires to those crossing one mode cut.
    """
    keys = []
    for tid, t in enumerate(network.tensors):
        modes = []
        for lab in t.labels:
            wire = _WIRE.fullmatch(lab) if isinstance(lab, str) else None
            if wire is None:
                return None
            modes.append(int(wire[1]))
        keys.append((max(modes, default=0), tid))
    tids = [tid for _, tid in sorted(keys)]
    order = []
    acc = tids[0] if tids else None
    for step, tid in enumerate(tids[1:]):
        order.append((acc, tid) if acc < tid else (tid, acc))
        acc = len(tids) + step
    return tuple(order)


def _network_masks(network: TensorNetwork):
    label_bits: dict = {}
    dims: list = []
    masks = []
    for t in network.tensors:
        mask = 0
        for lab, dim in zip(t.labels, t.values.shape):
            if lab not in label_bits:
                label_bits[lab] = len(dims)
                dims.append(int(dim))
            mask |= 1 << label_bits[lab]
        masks.append(mask)
    return masks, _size_rule(dims)


def _replay(masks, order):
    """Walk a plan over tensors given as label bitmasks, yielding
    (ia, ib, union_mask, out_mask) per step; the result takes the next free
    id. A step that names a dead or unknown id, or a plan that leaves more
    than one tensor, raises ContractViolationError."""
    alive = dict(enumerate(masks))
    next_id = len(masks)
    for ia, ib in order:
        ma, mb = alive.pop(ia, None), alive.pop(ib, None)
        if ma is None or mb is None:
            raise ContractViolationError(f"plan step ({ia}, {ib}) names a dead tensor")
        out = alive[next_id] = ma ^ mb
        next_id += 1
        yield ia, ib, ma | mb, out
    if len(alive) != 1:
        raise ContractViolationError("plan does not contract the network fully")


def _plan_cost(masks, order, size) -> tuple[float, float]:
    """(est_flops, max_elems) of a plan: one multiply-add per element of
    each step's index union, and the largest tensor, inputs included."""
    flops = 0.0
    max_elems = max((size(m) for m in masks), default=1.0)
    for _, _, union, out in _replay(masks, order):
        flops += size(union)
        elems = size(out)
        if elems > max_elems:
            max_elems = elems
    return flops, max_elems


def contraction_cost(network: TensorNetwork, trials: int, seed) -> ContractionPlan:
    """Best contraction plan over ``trials`` randomized greedy searches and
    the mode-order sweep.

    Costs count one multiply-add per element of the index union at each
    step. Each greedy trial is priced while it is built; the sweep (see
    ``_sweep_order``) is priced first and kept only when it strictly beats
    every greedy trial on (est_flops, max_tensor_elems). Nested child
    seeds make the trial list for t trials a prefix of the list for
    t' > t trials, so more trials can only improve the reported cost.
    Element counts saturate at inf; when even the best plan's est_flops
    is infinite, ResourceLimitError is raised.
    """
    if trials < 1:
        raise ContractViolationError(f"trials must be >= 1, got {trials}")
    masks, size = _network_masks(network)
    sweep = _sweep_order(network)
    sweep_cost = None if sweep is None else _plan_cost(masks, sweep, size)
    setup = _search_setup(masks, size)
    best = None
    for child in _seed_sequence(seed).spawn(trials):
        order, flops, elems = _greedy_path(len(masks), size, setup,
                                           np.random.default_rng(child))
        if best is None or (flops, elems) < (best.est_flops, best.max_tensor_elems):
            best = ContractionPlan(order, flops, elems)
    if sweep_cost is not None and sweep_cost < (best.est_flops, best.max_tensor_elems):
        best = ContractionPlan(sweep, *sweep_cost)
    if not math.isfinite(best.est_flops):
        raise ResourceLimitError(
            "no contraction plan found whose cost fits the float range")
    return best


def replay_cost(network: TensorNetwork, plan: ContractionPlan) -> tuple[float, float]:
    """Symbolically replay a plan, returning (est_flops, max_elems);
    validates that the order is a full contraction of this network."""
    masks, size = _network_masks(network)
    return _plan_cost(masks, plan.order, size)


def contract(network: TensorNetwork, plan: ContractionPlan | None = None,
             memory_guard: float = MEMORY_GUARD_ELEMS, seed=0,
             count_ops: bool = False):
    """Contract the network, following ``plan`` (or, when none is given,
    the plan ``contraction_cost`` picks with one greedy trial from
    ``seed`` and the mode-order sweep).

    Refuses any step whose output tensor would exceed ``memory_guard``
    elements. Returns the scalar amplitude for closed networks and the
    final open tensor's values otherwise; with ``count_ops`` the realized
    multiply-add count is returned alongside.
    """
    if plan is None:
        plan = contraction_cost(network, trials=1, seed=seed)
    masks, size = _network_masks(network)
    # indexed by tensor id: step k appends its result at T + k
    tensors = [(t.labels, t.values) for t in network.tensors]
    ops = 0.0
    for ia, ib, _, out in _replay(masks, plan.order):
        out_elems = size(out)
        if out_elems > memory_guard:
            raise ResourceLimitError(
                f"intermediate of {out_elems:.3e} elements exceeds the "
                f"memory guard of {memory_guard:.3e}")
        (la, va), (lb, vb) = tensors[ia], tensors[ib]
        tensors[ia] = tensors[ib] = None
        shared = [lab for lab in la if lab in lb]
        axes_a = [la.index(lab) for lab in shared]
        value = np.tensordot(va, vb, axes=(axes_a, [lb.index(lab) for lab in shared]))
        # realized work, read from the arrays: one multiply-add per output
        # element and per combination of the contracted axes
        ops += float(value.size * math.prod(va.shape[ax] for ax in axes_a))
        tensors.append((tuple(q for q in (*la, *lb) if q not in shared), value))
    labels, value = tensors[-1]
    result = value if labels else complex(value)
    return (result, ops) if count_ops else result
