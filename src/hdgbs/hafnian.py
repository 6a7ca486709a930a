"""Exact Hafnian and permanent evaluation.

Two independent routes to the Hafnian are provided. ``hafnian_enum`` sums
the (N-1)!! perfect-matching products directly and serves as the oracle;
``hafnian_fast`` implements the power-trace inclusion-exclusion algorithm
(Bjorklund, Gupt and Quesada, arXiv:1805.12498), which is what makes
matrices beyond N ~ 50 out of reach in practice.

With m = N/2, the fast path sums, over the 2^m subsets S of index pairs,
(-1)^(m-|S|) [x^m] det(I - x X B_S)^(-1/2), where X swaps the two indices
of each pair. The determinant factor is exp(sum_k tr((X B_S)^k) x^k / 2k),
so each subset needs the power traces for k = 1..m: ceil(m/2) - 1 stacked
matrix products and two trace contractions, the same at every size. That
is (ceil(m/2) - 1) (2s)^3 complex multiply-adds for a subset of s pairs,
of order N^4 2^(N/2) in all, one factor of N above the c * N^3 * 2^(N/2)
cost model; the wall time still follows the model over N = 16..36
because zgemm's cost per multiply-add falls as the blocks grow.

The subsets are enumerated in a fixed canonical order (by size, then
lexicographic) and their partial sums are reduced chunk by chunk in that
order, so results are bit-identical whether run serially or on a thread
pool. A chunk is a list of blocks of gather offsets, one block per run
of same-size subsets, and a block's width gives its subsets' sign. When
every subset fits one chunk (N <= 18), that chunk is built once per size
and reused by later calls.

``hafnian_fast`` also takes a stack of matrices, shape (..., N, N), as
``numpy.linalg`` does. Up to about ``_STACK`` entries of subset blocks,
the matrices of a stack share every numpy call of a chunk: the gather,
the matmuls, the traces and the coefficient recursion run once over all
of them, which is what makes many small Hafnians cheap (a call at N <= 6
is mostly fixed overhead). A chunk lays its power traces and series
coefficients out as (matrix, power, subset), so each matrix owns one
C-contiguous (power, subset) block from the start. Only the last
reduction runs per matrix, on that block, so each value equals the one
the matrix gives alone, bit for bit; a single matrix is the stack of one.
"""

import functools
import math
import operator
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from itertools import chain, combinations, islice

import numpy as np

from .errors import ResourceLimitError
from .matrices import _square, assert_symmetric

ENUM_LIMIT = 14           # (N-1)!! matchings; 14 -> 135135 terms
PERMANENT_LIMIT = 16
FAST_CEILING = 40         # practical desk-scale ceiling for the fast path
_STACK = 1 << 16          # matrix entries (subsets x (2s)^2) per chunk, fixed
                          # so the chunking and the reduction order are
                          # reproducible; a chunk's ceil(m/2) powers take
                          # 7 MiB at N = 28


def hafnian_enum(b: np.ndarray, limit: int = ENUM_LIMIT) -> complex:
    """Hafnian by explicit enumeration of all perfect matchings.

    Exact by construction (it is the defining sum), but factorially slow;
    inputs above ``limit`` are refused rather than allowed to crawl.
    The 0 x 0 Hafnian is 1 and any odd size gives 0.
    """
    b = _square(b, complex)
    n = b.shape[0]
    if n > limit:
        raise ResourceLimitError(
            f"enumeration over {n} indices exceeds the limit of {limit}")
    if n == 0:
        return 1.0 + 0.0j
    if n % 2:
        return 0.0 + 0.0j

    def match(idx: tuple) -> complex:
        if not idx:
            return 1.0 + 0.0j
        first = idx[0]
        total = 0.0 + 0.0j
        for t in range(1, len(idx)):
            rest = idx[1:t] + idx[t + 1:]
            total += b[first, idx[t]] * match(rest)
        return total

    return complex(match(tuple(range(n))))


def _subset_chunks(m: int):
    """Yield the non-empty subsets of the m index pairs in canonical order
    (by size, then lexicographic), cut into chunks of at most ``_STACK``
    matrix entries. A chunk is a list of (count, 2s, 2s) blocks, one per
    run of consecutive size-s subsets; a chunk may span several sizes, and
    its extent depends only on m.

    Block row c holds the flat offsets of X B_S in the 2m x 2m matrix for
    one subset S with indices cols, each in [0, 2m): row i of X B_S is row
    cols[i] ^ 1 of B, since X swaps the two indices of each pair.
    """
    pair_cols = np.arange(2 * m).reshape(m, 2)
    chunk, room = [], _STACK
    for s in range(1, m + 1):
        area = 4 * s * s
        combos = combinations(range(m), s)
        left = math.comb(m, s)
        while left:
            if room < area and chunk:
                yield chunk
                chunk, room = [], _STACK
            count = min(left, max(1, room // area))
            pairs = np.fromiter(chain.from_iterable(islice(combos, count)),
                                dtype=np.intp, count=count * s)
            cols = pair_cols[pairs].reshape(count, 2 * s)
            chunk.append(((cols ^ 1) * (2 * m))[:, :, None] + cols[:, None, :])
            room -= area * count
            left -= count
    yield chunk


@functools.cache
def _one_chunk_plan(m: int) -> tuple:
    """The blocks of every subset when all of them fit one chunk.

    They depend only on m, so they are built once per m and reused; at
    N <= 18 enumerating the subsets and building their offsets would
    otherwise be 15-30% of each call. Only m <= 9 reaches here, so the
    cache holds at most 9 plans, and their arrays are read-only because
    every caller shares them. Larger m streams its chunks.
    """
    (chunk,) = _subset_chunks(m)
    for offsets in chunk:
        offsets.setflags(write=False)
    return tuple(chunk)


def _plan(m: int):
    """The chunks of ``_subset_chunks(m)``, in canonical order. The (2s)^2
    entries of all 2^m - 1 subsets add up to m (m + 1) 2^m, which fits one
    chunk for m <= 9; that chunk comes from the cache, and larger m streams
    its chunks."""
    if m * (m + 1) * 2 ** m <= _STACK:
        yield _one_chunk_plan(m)
    else:
        yield from _subset_chunks(m)


def _power_traces(flat: np.ndarray, m: int, offsets: np.ndarray,
                  out: np.ndarray) -> None:
    """out[i, k-1, c] = tr((X B_S)^k) for k = 1..m, matrix i of ``flat`` and
    subset c of ``offsets``. ``flat`` holds K rescaled 2m x 2m matrices, one
    raveled matrix per row, and ``out`` is (K, m, count).

    The powers up to ceil(m/2) come from stacked matmuls; a higher trace
    pairs the top power with a lower one, tr(P^h P^j) = vec((P^h)^T) . vec(P^j).
    """
    count, d = offsets.shape[:2]
    stack, half = len(flat), (m + 1) // 2
    pows = np.empty((half, stack, count, d, d), dtype=complex)
    # every offset is in [0, 4m^2) by construction (each subset index lies
    # in [0, 2m)); mode="clip" lets take write into pows[0] directly, where
    # the default mode would gather into a temporary and copy it
    flat.take(offsets, axis=1, out=pows[0], mode="clip")
    for k in range(1, half):
        np.matmul(pows[k - 1], pows[0], out=pows[k])
    np.einsum("kscii->skc", pows, out=out[:, :half])
    if m > half:
        top = pows[half - 1].transpose(0, 1, 3, 2).reshape(stack, count, d * d, 1)
        np.matmul(pows[:m - half].reshape(m - half, stack, count, d * d).transpose(1, 2, 0, 3),
                  top, out=out[:, half:].transpose(0, 2, 1)[..., None])


def _chunk_sum(flat: np.ndarray, m: int, blocks) -> list:
    """Signed sums of [x^m] det(I - x X B_S)^(-1/2) over one chunk of subsets,
    given as blocks of gather offsets by ``_plan``, one sum per matrix of
    ``flat`` (K rescaled 2m x 2m matrices, one raveled matrix per row), with
    det(I - x A)^(-1/2) = exp(sum_k tr(A^k) x^k / (2k)). A block of width
    2s holds subsets of s pairs, whose sign is (-1)^(m-s).

    The K matrices share every numpy call up to the last. The traces and
    coefficients are laid out (matrix, power, subset), and each block fills
    the subset columns [start, stop) it owns, so each matrix's own
    (m, count) block is C-contiguous for the final reduction.
    """
    stack, count = len(flat), sum(map(len, blocks))
    tr = np.empty((stack, m, count), dtype=complex)
    sign = np.empty(count)
    start = 0
    for offsets in blocks:
        stop = start + len(offsets)
        _power_traces(flat, m, offsets, tr[:, :, start:stop])
        sign[start:stop] = -1.0 if (m - offsets.shape[1] // 2) % 2 else 1.0
        start = stop
    # power-series exponential, 2j c_j = sum_{k=1..j} tr_k c_{j-k}, with
    # c_j stored in rc[:, m-1-j] so that both operands run forward
    rc = np.empty((stack, m, count), dtype=complex)
    rc[:, m - 1] = 1.0
    for j in range(1, m):
        np.einsum("skb,skb->sb", tr[:, :j], rc[:, m - j:], out=rc[:, m - 1 - j])
        rc[:, m - 1 - j] /= 2 * j
    # the final reduction runs on each matrix's own C-contiguous (m, count)
    # block: einsum's summation order depends on the operands' layout, so
    # any other layout would change the last bits
    return [complex(np.einsum("kb,kb,b->", t, c, sign)) / (2 * m) for t, c in zip(tr, rc)]


def hafnian_fast(b: np.ndarray, workers: int | None = None,
                 ceiling: int = FAST_CEILING) -> complex | np.ndarray:
    """Hafnian of a complex symmetric matrix via power traces over
    pair subsets.

    Odd sizes return 0, the empty matrix gives 1, and non-symmetric input
    is rejected. ``workers`` > 1 fans the canonical subset chunks over a
    thread pool, drawing at most 2 * workers chunks ahead of the one being
    added; the reduction order is fixed, so the result does not depend on
    the worker count.

    ``b`` may also be a stack of shape (..., n, n), as in ``numpy.linalg``;
    the result is then an array of shape (...). Up to about ``_STACK``
    matrix entries of subsets, several matrices share one pass over the
    subset plan, so many small Hafnians cost little more than one. Each
    value equals the one the matrix gives alone, bit for bit.

    Error envelope, measured against exact references (relative error):

    * ``hafnian_enum``, N <= 12: below 1e-10;
    * rank-one v v^T = (N-1)!! prod(v), N = 20..32: below 1e-12;
    * a block-diagonal matrix of three random 10 x 10 blocks (N = 30),
      against the product of their enumerated Hafnians: 4e-9;
    * the block identity against Ryser's permanent, N = 24..32: below
      2e-10;
    * all-ones = (N-1)!!: below 5e-15 times the cancellation factor (the
      summed magnitude of the signed subset terms over the Hafnian), that
      is 7e-10 at N = 24 and 3.2e-7 at N = 32.

    The inclusion-exclusion sum cancels terms far larger than the result,
    so the error grows with N and with how much the terms cancel.
    """
    b = _square(b, complex, stack=True)
    n = b.shape[-1]
    if n > ceiling:
        raise ResourceLimitError(f"size {n} exceeds the fast-path ceiling of {ceiling}")
    if b.ndim == 2:
        return _hafnians(b[None], workers)[0]
    values = _hafnians(b.reshape(math.prod(b.shape[:-2]), n, n), workers)
    return np.array(values, dtype=complex).reshape(b.shape[:-2])


def _hafnians(stack: np.ndarray, workers: int | None) -> list:
    """Hafnians of a (K, n, n) stack, as a list of K complex values."""
    size, n = len(stack), stack.shape[-1]
    if n == 0:
        return [1.0 + 0.0j] * size
    if n % 2:
        return [0.0 + 0.0j] * size
    m = n // 2
    # matrices are grouped so that a group's one-chunk plan stays near
    # _STACK entries; from m = 10 on, chunks are full and a group is one
    # matrix. Checks, rescale and sums run group by group, so no temporary
    # spans the whole stack.
    group = max(1, _STACK // (m * (m + 1) << m))
    scales = []

    def units():
        for lo in range(0, size, group):
            part = stack[lo:lo + group]
            # one max|b| per matrix serves the symmetry check and the
            # rescale, which keeps the power sums well inside double range;
            # Haf(cB) = c^(n/2) Haf(B) restores the scale afterwards
            scale = assert_symmetric(part)
            part_scales = scale.tolist()
            scales.extend(part_scales)
            if 0.0 in part_scales:    # a zero matrix stays zero, Hafnian 0
                scale = np.where(scale > 0.0, scale, 1.0)
            flat = (part / scale.reshape(-1, 1, 1)).reshape(len(part), -1)
            for chunk in _plan(m):
                yield lo, flat, chunk

    total = [0.0 + 0.0j] * size
    for lo, sums in _chunk_sums(units(), m, workers):
        hi = lo + len(sums)
        total[lo:hi] = map(operator.add, total[lo:hi], sums)
    return [t * c ** m if c else 0.0 + 0.0j for t, c in zip(total, scales)]


def _chunk_sums(units, m: int, workers: int | None):
    """(lo, _chunk_sum(part, m, chunk)) for each (lo, part, chunk) unit, in
    the units' order whatever the worker count, so partial sums are always
    added in canonical chunk order. With threads, at most 2 * workers
    units wait, so the subsets stay streamed rather than all held at once.
    """
    if workers is None or workers <= 1:
        for lo, part, chunk in units:
            yield lo, _chunk_sum(part, m, chunk)
        return
    with ThreadPoolExecutor(max_workers=workers) as pool:
        pending = deque()
        for lo, part, chunk in units:
            pending.append((lo, pool.submit(_chunk_sum, part, m, chunk)))
            if len(pending) > 2 * workers:
                lo, future = pending.popleft()
                yield lo, future.result()
        while pending:
            lo, future = pending.popleft()
            yield lo, future.result()


def permanent(g: np.ndarray, limit: int = PERMANENT_LIMIT) -> complex:
    """Permanent by Ryser's inclusion-exclusion formula with Gray-code
    column updates, O(2^n n) arithmetic."""
    g = _square(g, complex)
    n = g.shape[0]
    if n > limit:
        raise ResourceLimitError(f"size {n} exceeds the permanent limit of {limit}")
    if n == 0:
        return 1.0 + 0.0j
    total = 0.0 + 0.0j
    rowsum = np.zeros(n, dtype=complex)
    prev_gray = 0
    for k in range(1, 1 << n):
        gray = k ^ (k >> 1)
        bit = gray ^ prev_gray
        j = bit.bit_length() - 1
        if gray & bit:
            rowsum += g[:, j]
        else:
            rowsum -= g[:, j]
        prev_gray = gray
        sign = -1.0 if (gray.bit_count() % 2) else 1.0
        total += sign * complex(np.prod(rowsum))
    return complex(total * (-1.0) ** n)


def permanent_enum(g: np.ndarray, limit: int = 8) -> complex:
    """Permanent by brute force over all n! permutations (oracle)."""
    from itertools import permutations

    g = _square(g, complex)
    n = g.shape[0]
    if n > limit:
        raise ResourceLimitError(f"factorial enumeration refused for n={n} > {limit}")
    if n == 0:
        return 1.0 + 0.0j
    total = 0.0 + 0.0j
    for perm in permutations(range(n)):
        prod = 1.0 + 0.0j
        for i, p in enumerate(perm):
            prod *= g[i, p]
        total += prod
    return complex(total)


def permanent_via_hafnian(g: np.ndarray, workers: int | None = None) -> complex:
    """Permanent through the block identity Per(G) = Haf([[0, G], [G^T, 0]]).

    The 2n x 2n block matrix is symmetric, and the only matchings with a
    nonzero product pair indices across the two blocks, which reproduces
    the permanent's permutation sum.
    """
    g = _square(g, complex)
    n = g.shape[0]
    block = np.zeros((2 * n, 2 * n), dtype=complex)
    block[:n, n:] = g
    block[n:, :n] = g.T
    return hafnian_fast(block, workers=workers)
