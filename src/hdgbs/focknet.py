"""Fock-basis tensor networks for amplitude computation and contraction
cost estimation.

A GBS instance becomes a network of one rank-1 squeezer tensor per mode
and one rank-4 beam-splitter tensor per gate, wired in gate order, with
output wires either left open or closed by photon-count basis vectors.
The walk that checks a network's wiring also indexes its labels as bits.

Contraction plans are priced symbolically (no tensor is materialized
during the search), which is how lattice sizes far beyond any feasible
contraction can still be priced. One walker, ``_Walk``, numbers, checks
and prices the steps of every plan, in the search, the sweep,
``replay_cost`` and ``contract``. A search walks a shared prefix once,
absorbing every rank-1 tensor into its only neighbour; randomized greedy
trials continue from copies of it, each contracting the pair of
neighbours with the smallest intermediate. The mode-order sweep, a
caterpillar plan that follows the circuit's band, is kept when strictly
cheaper; it wins on large delay-line networks and the greedy on small
ones. Element counts saturate at inf past the float range; a search
whose best plan is still infinite is refused as a resource limit.
"""
import copy
import functools
import heapq
import itertools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .circuit import GbsInstance
from .errors import ContractViolationError, ResourceLimitError
from .matrices import _counts, _integer, _real, _seed_sequence, _squeezing, assert_unitary

MEMORY_GUARD_ELEMS = 10 ** 8


@dataclass(frozen=True, eq=False)
class FockTensor:
    """Dense tensor with one hashable label per index; every axis has the
    same length only by convention of the builders, not by requirement."""

    labels: tuple
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        if len(self.labels) != self.values.ndim:
            raise ContractViolationError(
                f"{len(self.labels)} labels for a rank-{self.values.ndim} tensor")
        if len(set(self.labels)) != len(self.labels):
            raise ContractViolationError(f"repeated label within tensor: {self.labels}")


class _LabelIndex(NamedTuple):
    """A network's labels as bits, in order of first appearance."""

    masks: tuple      # per tensor: the bits of its labels
    owners: tuple     # per bit: the ids of the tensors that carry it
    size: object      # element count of a label mask, see _size_rule


@dataclass(frozen=True, eq=False)
class TensorNetwork:
    tensors: tuple
    open_labels: tuple
    _index: _LabelIndex = field(init=False, repr=False)

    def __post_init__(self):
        if not self.tensors:
            raise ContractViolationError("a tensor network needs at least one tensor")
        uses: dict = {}     # label -> (bit, owner ids, dims)
        masks = []
        for tid, t in enumerate(self.tensors):
            mask = 0
            for lab, dim in zip(t.labels, t.values.shape):
                bit, owners, dims = uses.setdefault(lab, (len(uses), [], []))
                owners.append(tid)
                dims.append(dim)
                mask |= 1 << bit
            masks.append(mask)
        open_labels = set(self.open_labels)
        for lab, (_, owners, dims) in uses.items():
            if len(set(dims)) != 1:
                raise ContractViolationError(f"label {lab!r} has mismatched dims {dims}")
            expected = 1 if lab in open_labels else 2
            if len(dims) != expected:
                raise ContractViolationError(
                    f"label {lab!r} appears {len(dims)} times, expected {expected}")
        missing = open_labels - set(uses)
        if missing:
            raise ContractViolationError(f"open labels {missing} not present")
        object.__setattr__(self, "_index", _LabelIndex(
            tuple(masks), tuple(tuple(owners) for _, owners, _ in uses.values()),
            _size_rule([dims[0] for _, _, dims in uses.values()])))


@dataclass(frozen=True)
class ContractionPlan:
    """Pairwise contraction order in single-assignment ids: tensors are
    numbered 0..T-1, and step k merges (i, j) into id T + k. ``_Walk``
    is the one place that defines this scheme and the rules a valid plan
    obeys."""

    order: tuple
    est_flops: float
    max_tensor_elems: float


def squeezed_vacuum_tensor(r: float, cutoff: int, label="out") -> FockTensor:
    """Rank-1 tensor of squeezed-vacuum amplitudes truncated to ``cutoff``
    levels: amp(2k) = (-tanh r)^k sqrt((2k)!) / (2^k k! sqrt(cosh r)),
    zero on odd levels."""
    _squeezing(r)
    cutoff = _integer(cutoff, "cutoff", 1)
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
    cutoff = _integer(cutoff, "cutoff", 1)
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


def fock_basis_vector(level: int, cutoff: int, label) -> FockTensor:
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
    corresponding photon-count basis vector. Wires are labelled (q, hop).
    """
    modes = instance.modes
    wire = [(q, 0) for q in range(modes)]
    tensors = [squeezed_vacuum_tensor(instance.r, cutoff, wire[q])
               for q in range(modes)]
    for g in instance.gates:
        new_i, new_j = (g.i, wire[g.i][1] + 1), (g.j, wire[g.j][1] + 1)
        tensors.append(beamsplitter_tensor(g.v, cutoff,
                                           (new_i, new_j, wire[g.i], wire[g.j])))
        wire[g.i], wire[g.j] = new_i, new_j
    if pattern is None:
        return TensorNetwork(tuple(tensors), tuple(wire))
    counts = _counts(pattern, modes)
    for q in range(modes):
        tensors.append(fock_basis_vector(int(counts[q]), cutoff, wire[q]))
    return TensorNetwork(tuple(tensors), ())


def _size_rule(dims):
    """The element count of a tensor as a function of its label bitmask,
    built once per network with its label index and read by every walk.

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
    while mask:
        low = mask & -mask
        total *= dims[low.bit_length() - 1]
        mask ^= low
    return total


class _Walk:
    """A plan walked over a network's label masks, the one place that
    numbers, checks and prices steps: tensors are ids 0..T-1 and the k-th
    merge makes id T + k. A step costs one multiply-add per element of its
    index union; ``max_elems`` is the largest tensor, inputs included."""

    __slots__ = ("alive", "order", "size", "n_tensors", "est_flops", "max_elems")

    def __init__(self, index: _LabelIndex):
        self.alive = dict(enumerate(index.masks))
        self.order = []
        self.size = size = index.size
        self.n_tensors = len(index.masks)
        self.est_flops = 0.0
        self.max_elems = max(size(m) for m in index.masks)

    def copy(self) -> "_Walk":
        twin = copy.copy(self)
        twin.alive, twin.order = dict(self.alive), list(self.order)
        return twin

    def merge(self, ia: int, ib: int) -> int:
        """Contract tensors ia and ib into the next id and return it. An id
        that is dead, unknown or named twice raises ContractViolationError."""
        alive = self.alive
        ma, mb = alive.pop(ia, None), alive.pop(ib, None)
        if ma is None or mb is None:
            raise ContractViolationError(f"plan step ({ia}, {ib}) names a dead tensor")
        tid = self.n_tensors + len(self.order)
        self.order.append((ia, ib) if ia < ib else (ib, ia))
        out = alive[tid] = ma ^ mb
        size = self.size
        self.est_flops += size(ma | mb)
        elems = size(out)
        if elems > self.max_elems:
            self.max_elems = elems
        return tid

    def finish(self, steps=()) -> tuple[float, float]:
        """Merge ``steps`` in order and return (est_flops, max_elems). A plan
        that leaves more than one tensor raises ContractViolationError."""
        for ia, ib in steps:
            self.merge(ia, ib)
        if len(self.alive) != 1:
            raise ContractViolationError("plan does not contract the network fully")
        return self.est_flops, self.max_elems


def _merge(nbrs, ia: int, ib: int, tid: int) -> set:
    """Give tensor ``tid``, merged from ia and ib, the neighbours of both
    other than the pair itself, and return them: a label has at most two
    owners, so no other neighbour set changes beyond the renaming."""
    joined = (nbrs.pop(ia) | nbrs.pop(ib)) - {ia, ib}
    for nb in joined:
        ring = nbrs[nb]
        ring.discard(ia)
        ring.discard(ib)
        ring.add(tid)
    nbrs[tid] = joined
    return joined


def _search_setup(index: _LabelIndex):
    """What every greedy trial over one network starts from: the walk and
    the tensor adjacency sets after absorbing every rank-1 tensor (a
    squeezer or a basis vector) into its only neighbour, in tensor-id
    order, a step that shrinks the neighbour; and (size, ia, ib) for each
    remaining pair of neighbours in ascending (ia, ib), the order in which
    the trials draw their tie-breakers for them."""
    nbrs = {tid: set() for tid in range(len(index.masks))}
    for tids in index.owners:
        if len(tids) == 2:
            ia, ib = tids
            nbrs[ia].add(ib)
            nbrs[ib].add(ia)
    walk = _Walk(index)
    alive = walk.alive
    for tid, mask in enumerate(index.masks):
        # a rank-1 tensor can already be gone, absorbed by a rank-1 partner
        if mask.bit_count() == 1 and tid in alive and nbrs[tid]:
            nb = next(iter(nbrs[tid]))
            _merge(nbrs, tid, nb, walk.merge(tid, nb))
    pairs = [(index.size(alive[ia] ^ alive[ib]), ia, ib)
             for ia in sorted(alive) for ib in sorted(nbrs[ia]) if ia < ib]
    return walk, nbrs, pairs


def _tie_breaks(rng, first: int):
    """Uniform doubles, the same ones successive ``rng.random()`` calls give,
    drawn in blocks: ``first`` of them, then blocks of at least 16."""
    block = max(first, 16)
    more = iter(lambda: rng.random(block).tolist(), None)
    return itertools.chain(rng.random(first).tolist(), itertools.chain.from_iterable(more))


def _greedy_path(setup, rng):
    """One randomized greedy search, continuing from a copy of the walk of
    its ``_search_setup``; returns (order, est_flops, max_elems).

    At every step the candidate pair of neighbours producing the smallest
    intermediate is contracted, with exact ties broken uniformly at
    random; that tie noise is the only source of variation between trials.
    """
    first, first_nbrs, first_pairs = setup
    walk = first.copy()
    alive, merge, size = walk.alive, walk.merge, walk.size
    nbrs = {tid: set(ring) for tid, ring in first_nbrs.items()}
    draws = _tie_breaks(rng, len(first_pairs))
    heap = [(elems, next(draws), ia, ib) for elems, ia, ib in first_pairs]
    heapq.heapify(heap)
    heappop, heappush = heapq.heappop, heapq.heappush
    while len(alive) > 1:
        # ids are never reused, so a pair whose two tensors are both still
        # alive is still a valid candidate, and its recorded size is that
        # of the tensor it makes
        while heap:
            _, _, ia, ib = heappop(heap)
            if ia in alive and ib in alive:
                break
        else:
            # disconnected remainder: outer-product the two smallest ids
            ia, ib = sorted(alive)[:2]
        tid = merge(ia, ib)
        new_mask = alive[tid]
        for nb in sorted(_merge(nbrs, ia, ib, tid)):
            heappush(heap, (size(new_mask ^ alive[nb]), next(draws), nb, tid))
    return (tuple(walk.order), *walk.finish())


def _sweep_order(network: TensorNetwork):
    """Caterpillar plan in mode order, or None for a network with a label
    other than the (q, hop) wires ``build_network`` makes.

    Tensors are taken by the largest mode they touch, ties broken by
    tensor id, and each is absorbed into one growing tensor. On a banded
    circuit this keeps the open wires to those crossing one mode cut.
    """
    keys = []
    for tid, t in enumerate(network.tensors):
        if not all(isinstance(lab, tuple) and len(lab) == 2 and isinstance(lab[0], int)
                   for lab in t.labels):
            return None
        keys.append((max((q for q, _ in t.labels), default=0), tid))
    tids = [tid for _, tid in sorted(keys)]
    order = []
    acc = tids[0]
    for step, tid in enumerate(tids[1:]):
        order.append((acc, tid) if acc < tid else (tid, acc))
        acc = len(tids) + step
    return tuple(order)


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
    trials = _integer(trials, "trials", 1)
    sweep = _sweep_order(network)
    swept = [] if sweep is None else [(sweep, *_Walk(network._index).finish(sweep))]
    setup = _search_setup(network._index)
    greedy = (_greedy_path(setup, np.random.default_rng(child))
              for child in _seed_sequence(seed).spawn(trials))
    # min keeps the first of equal costs, so the sweep wins only when cheaper
    best = ContractionPlan(*min(itertools.chain(greedy, swept), key=lambda p: p[1:]))
    if not math.isfinite(best.est_flops):
        raise ResourceLimitError(
            "no contraction plan found whose cost fits the float range")
    return best


def replay_cost(network: TensorNetwork, plan: ContractionPlan) -> tuple[float, float]:
    """Symbolically replay a plan, returning (est_flops, max_elems);
    validates that the order is a full contraction of this network."""
    return _Walk(network._index).finish(plan.order)


def contract(network: TensorNetwork, plan: ContractionPlan,
             memory_guard: float = MEMORY_GUARD_ELEMS, count_ops: bool = False):
    """Contract the network in the order of ``plan``.

    Refuses any step whose output tensor would exceed ``memory_guard``
    elements (inf: no guard), and a guard outside (0, inf]. Returns the
    scalar amplitude for closed networks and the final open tensor's values
    otherwise; with ``count_ops`` the realized multiply-add count too.
    """
    memory_guard = _real(memory_guard, "memory_guard", 0, math.inf, "(]")
    walk = _Walk(network._index)
    # indexed by tensor id: step k appends its result at T + k
    tensors = [(t.labels, t.values) for t in network.tensors]
    ops = 0.0
    for ia, ib in plan.order:
        out_elems = walk.size(walk.alive[walk.merge(ia, ib)])
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
    walk.finish()
    labels, value = tensors[-1]
    result = value if labels else complex(value)
    return (result, ops) if count_ops else result
