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
pool. When every subset fits one chunk (N <= 18), the gather offsets of
the subsets are built once per size and reused by later calls.
"""

import functools
import math
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
    matrix entries. A chunk is a list of (count, 2s) arrays, one per run
    of consecutive size-s subsets, and row r of such an array lists the 2s
    matrix indices of one subset, each in [0, 2m); a chunk may span several
    sizes, and its extent depends only on m.
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
            chunk.append(pair_cols[pairs].reshape(count, 2 * s))
            room -= area * count
            left -= count
    yield chunk


def _gather_offsets(m: int, cols: np.ndarray) -> np.ndarray:
    """Flat offsets of X B_S in the 2m x 2m matrix, one (2s, 2s) block per
    row of ``cols``: row i of X B_S is row cols[i] ^ 1 of B, since X swaps
    the two indices of each pair."""
    return ((cols ^ 1) * (2 * m))[:, :, None] + cols[:, None, :]


@functools.cache
def _one_chunk_plan(m: int) -> tuple:
    """Gather offsets of every subset when all of them fit one chunk.

    They depend only on m, so they are built once per m and reused; at
    N <= 18 enumerating the subsets and building their offsets would
    otherwise be 15-30% of each call. Only m <= 9 reaches here, so the
    cache holds at most 9 plans, and their arrays are read-only because
    every caller shares them. Larger m streams its chunks.
    """
    (chunk,) = _subset_chunks(m)
    plan = tuple(_gather_offsets(m, cols) for cols in chunk)
    for offsets in plan:
        offsets.setflags(write=False)
    return plan


def _plan(m: int):
    """Chunks of gather-offset blocks in canonical order (see
    ``_subset_chunks``). The (2s)^2 entries of all 2^m - 1 subsets add up
    to m (m + 1) 2^m, which fits one chunk for m <= 9."""
    if m * (m + 1) * 2 ** m <= _STACK:
        yield _one_chunk_plan(m)
        return
    for chunk in _subset_chunks(m):
        yield [_gather_offsets(m, cols) for cols in chunk]


def _power_traces(flat: np.ndarray, m: int, offsets: np.ndarray,
                  out: np.ndarray) -> None:
    """out[k-1] = tr((X B_S)^k) for k = 1..m, one column per subset.

    The powers up to ceil(m/2) come from stacked matmuls; a higher trace
    pairs the top power with a lower one, tr(P^h P^j) = vec((P^h)^T) . vec(P^j).
    """
    count, d = offsets.shape[:2]
    half = (m + 1) // 2
    pows = np.empty((half, count, d, d), dtype=complex)
    # every offset is in [0, 4m^2) by construction (each subset index lies
    # in [0, 2m)); mode="clip" lets take write into pows[0] directly, where
    # the default mode would gather into a temporary and copy it
    flat.take(offsets, out=pows[0], mode="clip")
    for k in range(1, half):
        np.matmul(pows[k - 1], pows[0], out=pows[k])
    np.einsum("kbii->kb", pows, out=out[:half])
    if m > half:
        top = pows[half - 1].transpose(0, 2, 1).reshape(count, d * d, 1)
        np.matmul(pows[:m - half].reshape(m - half, count, d * d).transpose(1, 0, 2),
                  top, out=out[half:].T[:, :, None])


def _chunk_sum(flat: np.ndarray, m: int, chunk: list) -> complex:
    """Signed sum of [x^m] det(I - x X B_S)^(-1/2) over one chunk of subsets,
    given as blocks of gather offsets, with
    det(I - x A)^(-1/2) = exp(sum_k tr(A^k) x^k / (2k))."""
    count = sum(len(offsets) for offsets in chunk)
    tr = np.empty((m, count), dtype=complex)
    sign = np.empty(count)
    start = 0
    for offsets in chunk:
        stop = start + len(offsets)
        _power_traces(flat, m, offsets, tr[:, start:stop])
        sign[start:stop] = -1.0 if (m - offsets.shape[1] // 2) % 2 else 1.0
        start = stop
    # power-series exponential, 2j c_j = sum_{k=1..j} tr_k c_{j-k}, with
    # c_j stored in rc[m-1-j] so that both operands run forward
    rc = np.empty((m, count), dtype=complex)
    rc[m - 1] = 1.0
    for j in range(1, m):
        np.einsum("kb,kb->b", tr[:j], rc[m - j:], out=rc[m - 1 - j])
        rc[m - 1 - j] /= 2 * j
    return complex(np.einsum("kb,kb,b->", tr, rc, sign)) / (2 * m)


def hafnian_fast(b: np.ndarray, workers: int | None = None,
                 ceiling: int = FAST_CEILING) -> complex:
    """Hafnian of a complex symmetric matrix via power traces over
    pair subsets.

    Odd sizes return 0, the empty matrix gives 1, and non-symmetric input
    is rejected. ``workers`` > 1 fans the canonical subset chunks over a
    thread pool, drawing at most 2 * workers chunks ahead of the one being
    added; the reduction order is fixed, so the result does not depend on
    the worker count.

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
    b = _square(b, complex)
    n = b.shape[0]
    if n > ceiling:
        raise ResourceLimitError(f"size {n} exceeds the fast-path ceiling of {ceiling}")
    if n == 0:
        return 1.0 + 0.0j
    if n % 2:
        return 0.0 + 0.0j
    assert_symmetric(b)
    m = n // 2

    # One global rescale keeps the power sums well inside double range;
    # Haf(cB) = c^(n/2) Haf(B) restores the scale afterwards.
    scale = float(np.max(np.abs(b)))
    if scale == 0.0:
        return 0.0 + 0.0j
    flat = (b / scale).ravel()

    # partial sums are added in canonical chunk order, whatever the worker
    # count; with threads, at most 2 * workers chunks wait, so the subsets
    # stay streamed rather than all held at once
    total = 0.0 + 0.0j
    chunks = _plan(m)
    if workers is not None and workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            pending = deque()
            for chunk in chunks:
                pending.append(pool.submit(_chunk_sum, flat, m, chunk))
                if len(pending) > 2 * workers:
                    total += pending.popleft().result()
            while pending:
                total += pending.popleft().result()
    else:
        for chunk in chunks:
            total += _chunk_sum(flat, m, chunk)
    return complex(total * scale ** m)


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
