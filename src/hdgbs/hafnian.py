"""Exact Hafnian and permanent evaluation.

Two independent routes to the Hafnian are provided. ``hafnian_enum`` sums
the (N-1)!! perfect-matching products directly and serves as the oracle;
``hafnian_fast`` implements the power-trace inclusion-exclusion algorithm
whose arithmetic cost scales as N^3 2^(N/2), which is what makes matrices
beyond N ~ 50 out of reach in practice.

The fast path enumerates the 2^(N/2) index-pair subsets in a fixed
canonical order (by subset size, then lexicographic) and reduces partial
sums chunk by chunk in that order, so results are bit-identical whether
run serially or on a thread pool.
"""

from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .errors import ResourceLimitError
from .matrices import _square, assert_symmetric

ENUM_LIMIT = 14           # (N-1)!! matchings; 14 -> 135135 terms
PERMANENT_LIMIT = 16
FAST_CEILING = 40         # practical desk-scale ceiling for the fast path
_CHUNK = 2048             # subsets per batch; fixed so reductions are reproducible
_SMALL_BLOCK = 10         # sub-matrix dim at or below which power traces use
                          # dense matrix powers instead of an eigendecomposition
                          # (cheaper there, and only bounded sizes take this
                          # branch so the asymptotic operation count is kept)


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


def _subset_chunks(m: int, chunk: int):
    """Yield (size, rows) index blocks over all non-empty subsets of the m
    index pairs, in canonical order: by size, then lexicographic."""
    from itertools import combinations, islice
    for s in range(1, m + 1):
        combos = combinations(range(m), s)
        while True:
            block = list(islice(combos, chunk))
            if not block:
                break
            pairs = np.asarray(block, dtype=np.intp)
            rows = np.empty((len(block), 2 * s), dtype=np.intp)
            rows[:, 0::2] = 2 * pairs
            rows[:, 1::2] = 2 * pairs + 1
            yield s, rows


def _power_traces(sub: np.ndarray, m: int) -> np.ndarray:
    """tr(B^k) for k = 1..m of each matrix in a (count, d, d) stack.

    Small blocks use explicit matrix powers (pairing two half powers per
    trace); larger ones go through eigenvalues, which keeps the per-subset
    arithmetic at O(d^3 + m d).
    """
    count, d = sub.shape[0], sub.shape[1]
    traces = np.empty((m + 1, count), dtype=complex)
    if d <= _SMALL_BLOCK:
        half = (m + 1) // 2
        pows = [sub]
        for _ in range(half - 1):
            pows.append(pows[-1] @ sub)
        for k in range(1, half + 1):
            traces[k] = np.einsum("bii->b", pows[k - 1])
        for k in range(half + 1, m + 1):
            traces[k] = np.einsum("bij,bji->b", pows[half - 1], pows[k - half - 1])
    else:
        lam = np.linalg.eigvals(sub)
        cur = np.ones_like(lam)
        for k in range(1, m + 1):
            cur = cur * lam
            traces[k] = cur.sum(axis=1)
    return traces


def _chunk_sum(b: np.ndarray, m: int, s: int, rows: np.ndarray) -> complex:
    """Signed contribution of one canonical chunk of size-s subsets."""
    sub = b[rows[:, :, None], rows[:, None, :]]
    swap = np.arange(2 * s).reshape(-1, 2)[:, ::-1].ravel()
    sub = sub[:, swap, :]                      # left-multiply by the pair-swap X
    traces = _power_traces(sub, m)
    count = rows.shape[0]
    # coefficient of x^m in exp(sum_k tr(B^k) x^k / (2k)), per matrix
    coeff = np.zeros((m + 1, count), dtype=complex)
    coeff[0] = 1.0
    for j in range(1, m + 1):
        acc = np.zeros(count, dtype=complex)
        for k in range(1, j + 1):
            acc += (traces[k] / 2.0) * coeff[j - k]
        coeff[j] = acc / j
    sign = -1.0 if (m - s) % 2 else 1.0
    return sign * complex(np.sum(coeff[m]))


def hafnian_fast(b: np.ndarray, workers: int | None = None,
                 ceiling: int = FAST_CEILING) -> complex:
    """Hafnian of a complex symmetric matrix via power traces over
    pair subsets.

    Matches ``hafnian_enum`` to better than 1e-10 relative error wherever
    both run. Odd sizes return 0, the empty matrix gives 1, and
    non-symmetric input is rejected. ``workers`` > 1 fans the canonical
    subset chunks over a thread pool; the reduction order is fixed, so
    the result does not depend on the worker count.
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
    b = b / scale

    chunks = list(_subset_chunks(m, _CHUNK))
    if workers is not None and workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            partials = list(pool.map(lambda sr: _chunk_sum(b, m, sr[0], sr[1]), chunks))
    else:
        partials = [_chunk_sum(b, m, s, rows) for s, rows in chunks]

    total = 0.0 + 0.0j
    for p in partials:          # fixed canonical order, independent of workers
        total += p
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
