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
matrix products and two trace contractions, the same at every size. Each
product is one real matmul, a power's 2s x 4s float view times the
subset's 4s x 4s real form, with the 4 (2s)^3 real multiply-adds of a
complex product. That is (ceil(m/2) - 1) (2s)^3 complex multiply-adds
for a subset of s pairs, of order N^4 2^(N/2) in all, one factor of N
above the c * N^3 * 2^(N/2) cost model; the wall time still follows the
model over N = 16..36 because dgemm's cost per multiply-add falls as the
blocks grow.

The subsets are enumerated in a fixed canonical order (by size, then
lexicographic) and their partial sums are reduced chunk by chunk in that
order, so results are bit-identical whether run serially or on a thread
pool. A chunk is a list of blocks of gather offsets, one block per run
of same-size subsets, and a block's width gives its subsets' sign. The
chunks are built afresh by every call; no state is kept between calls.

``hafnian_fast`` also takes a stack of matrices, shape (..., N, N), as
``numpy.linalg`` does. The stack runs group by group, a group holding
about ``_STACK`` entries of subset blocks, and the matrices of a group
share every numpy call of a chunk, final reduction included, which is
what makes many small Hafnians cheap (a call at N <= 6 is mostly fixed
overhead). A chunk lays its power traces and series coefficients out as
(matrix, power, subset), so each matrix owns one C-contiguous (power,
subset) block, and that layout alone makes each value equal the one the
matrix gives alone, bit for bit; a single matrix is the stack of one.
"""

import math
from collections import deque
from itertools import chain, combinations, islice

import numpy as np

from .errors import ResourceLimitError
from .matrices import _integer, _square, assert_symmetric

ENUM_LIMIT = 14           # (N-1)!! matchings; 14 -> 135135 terms
PERMANENT_LIMIT = 16
PERMANENT_ENUM_LIMIT = 8  # n! permutations; 8 -> 40320 terms
FAST_CEILING = 40         # practical desk-scale ceiling for the fast path
_STACK = 1 << 16          # matrix entries (subsets x (2s)^2) per chunk, fixed
                          # so the chunking and the reduction order are
                          # reproducible; a chunk's ceil(m/2) powers take
                          # 7 MiB at N = 28


def hafnian_enum(b: np.ndarray) -> complex:
    """Hafnian by explicit enumeration of all perfect matchings.

    Exact by construction (it is the defining sum), but factorially slow;
    inputs above ENUM_LIMIT are refused rather than allowed to crawl.
    The 0 x 0 Hafnian is 1 and any odd size gives 0.
    """
    b = _square(b, complex)
    n = b.shape[0]
    if n > ENUM_LIMIT:
        raise ResourceLimitError(
            f"enumeration over {n} indices exceeds the limit of {ENUM_LIMIT}")
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


def _power_traces(flat: np.ndarray, m: int, offsets: np.ndarray,
                  out: np.ndarray) -> None:
    """out[i, k-1, c] = tr((X B_S)^k) for k = 1..m, matrix i of ``flat`` and
    subset c of ``offsets``. ``flat`` holds K rescaled 2m x 2m matrices, one
    raveled matrix per row, and ``out`` is (K, m, count).

    The powers up to ceil(m/2) come from stacked real matmuls; a higher
    trace pairs the top power with a lower one,
    tr(P^h P^j) = vec((P^h)^T) . vec(P^j).

    Viewed as float64, a d x d complex power is a d x 2d real matrix whose
    rows hold (re, im) pairs. P's real form R is 2d x 2d: row 2l is row l
    of P and row 2l+1 is row l of iP, each as (re, im) pairs, so the real
    product P^k R is P^(k+1) in that same layout.
    """
    count, d = offsets.shape[:2]
    stack, half = len(flat), (m + 1) // 2
    pows = np.empty((half, stack, count, d, d), dtype=complex)
    # every offset is in [0, 4m^2) by construction (each subset index lies
    # in [0, 2m)); mode="clip" lets take write into pows[0] directly, where
    # the default mode would gather into a temporary and copy it
    flat.take(offsets, axis=1, out=pows[0], mode="clip")
    if half > 1:
        form = np.empty((stack, count, d, 2, d), dtype=complex)
        form[:, :, :, 0] = pows[0]
        np.multiply(pows[0], 1j, out=form[:, :, :, 1])
        form = form.view(np.float64).reshape(stack, count, 2 * d, 2 * d)
        rows = pows.view(np.float64)
        for k in range(1, half):
            np.matmul(rows[k - 1], form, out=rows[k])
    np.einsum("kscii->skc", pows, out=out[:, :half])
    if m > half:
        top = pows[half - 1].transpose(0, 1, 3, 2).reshape(stack, count, d * d, 1)
        np.matmul(pows[:m - half].reshape(m - half, stack, count, d * d).transpose(1, 2, 0, 3),
                  top, out=out[:, half:].transpose(0, 2, 1)[..., None])


def _chunk_sum(flat: np.ndarray, m: int, blocks) -> list:
    """Signed sums of [x^m] det(I - x X B_S)^(-1/2) over one chunk of subsets
    from ``_subset_chunks``, given as blocks of gather offsets, one sum per
    matrix of ``flat`` (K rescaled 2m x 2m matrices, one raveled matrix per
    row), with det(I - x A)^(-1/2) = exp(sum_k tr(A^k) x^k / (2k)). A block
    of width 2s holds subsets of s pairs, whose sign is (-1)^(m-s).

    The K matrices share every numpy call, the final reduction included.
    The traces and coefficients are laid out (matrix, power, subset), and
    each block fills the subset columns [start, stop) it owns, so each
    matrix's own (m, count) block is C-contiguous.
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
    # each matrix's C-contiguous (m, count) block fixes its summation order,
    # so one einsum sums each matrix as it would alone; the division by 2m
    # stays in Python, as numpy's complex division changes the last bits
    sums = np.einsum("skb,skb,b->s", tr, rc, sign)
    return [v / (2 * m) for v in sums.tolist()]


def hafnian_fast(b: np.ndarray, workers: int = 1) -> complex | np.ndarray:
    """Hafnian of a complex symmetric matrix via power traces over
    pair subsets.

    Odd sizes return 0, the empty matrix gives 1, and non-symmetric input
    or a size above FAST_CEILING is rejected. ``workers``, an integer
    >= 1, overlaps one group's subset chunks on that many threads (a group
    is one chunk up to N = 18, so this acts from N = 20; the groups of a
    stack run one after another); 1 runs serially. The reduction order is
    fixed, so the result does not depend on the worker count.

    ``b`` may also be a stack of shape (..., n, n), as in ``numpy.linalg``;
    the result is then an array of shape (...), and each value equals the
    one the matrix gives alone, bit for bit. Every call builds its subset
    offsets afresh, about a third of a lone call's time at N <= 8, so many
    small matrices belong in one stack rather than in separate calls.

    Error envelope, measured against exact references (relative error):

    * ``hafnian_enum``, N <= 12: below 1e-10;
    * rank-one v v^T = (N-1)!! prod(v), N = 20..32: below 1e-12;
    * a block-diagonal matrix of three random 10 x 10 blocks (N = 30),
      against the product of their enumerated Hafnians: 1.4e-9;
    * the block identity against Glynn's ``permanent``, N = 24..32, three
      complex normal matrices per size: below 5e-10;
    * all-ones = (N-1)!!: below 5e-15 times the cancellation factor (the
      summed magnitude of the signed subset terms over the Hafnian), that
      is 7e-10 at N = 24 and 3.2e-7 at N = 32;
    * B_N of 20 random collision-free patterns per size on the 216-mode
      (0.8, 6, 3, C) instances of seed 42, against the matching recursion
      in extended precision, worst per size at N = 12, 14, 16, 18, 20:
      4.7e-11, 2.4e-10, 1.6e-9, 2.8e-9, 3.6e-7 at C = 1 and 1.9e-13,
      2.7e-13, 1.0e-12, 3.1e-12, 3.5e-11 at C = 3.

    The inclusion-exclusion sum cancels terms far larger than the result,
    so the error grows with N and with how much the terms cancel; the
    one-cycle instances lose the most digits.
    """
    b = _square(b, complex, stack=True)
    workers = _integer(workers, "workers", 1)
    n = b.shape[-1]
    if n > FAST_CEILING:
        raise ResourceLimitError(f"size {n} exceeds the fast-path ceiling of {FAST_CEILING}")
    if b.ndim == 2:
        return _hafnians(b[None], workers)[0]
    values = _hafnians(b.reshape(math.prod(b.shape[:-2]), n, n), workers)
    return np.array(values, dtype=complex).reshape(b.shape[:-2])


def _hafnians(stack: np.ndarray, workers: int) -> list:
    """Hafnians of a (K, n, n) stack, as a list of K complex values."""
    size, n = len(stack), stack.shape[-1]
    if n == 0:
        return [1.0 + 0.0j] * size
    if n % 2:
        return [0.0 + 0.0j] * size
    m = n // 2
    # the (2s)^2 entries of all 2^m - 1 subsets add up to m (m + 1) 2^m,
    # which fits one chunk up to m = 9; matrices are grouped so that a
    # group's gathered subsets stay near _STACK entries, and from m = 10 on
    # a group is one matrix. Groups run one after another, so no temporary
    # spans the whole stack.
    group = max(1, _STACK // (m * (m + 1) << m))
    values = []
    for lo in range(0, size, group):
        part = stack[lo:lo + group]
        # one max|b| per matrix serves the symmetry check and the rescale,
        # which keeps the power sums well inside double range;
        # Haf(cB) = c^(n/2) Haf(B) restores the scale afterwards
        scale = assert_symmetric(part)
        # a zero matrix is divided by 1 and stays zero, Hafnian 0
        safe = np.where(scale > 0.0, scale, 1.0)
        flat = (part / safe[:, None, None]).reshape(len(part), -1)
        total = [0.0 + 0.0j] * len(part)
        for sums in _chunk_sums(flat, m, workers):
            total = [t + v for t, v in zip(total, sums)]
        values.extend(t * c ** m if c else 0.0 + 0.0j
                      for t, c in zip(total, scale.tolist()))
    return values


def _chunk_sums(flat: np.ndarray, m: int, workers: int):
    """_chunk_sum(flat, m, chunk) for each chunk of ``_subset_chunks(m)``,
    in canonical order whatever the worker count. Threads overlap the
    chunks of this one group, with at most 2 * workers waiting, so the
    subsets stay streamed rather than all held at once. The thread pool's
    module loads on the first call with workers > 1.
    """
    if workers == 1:
        for chunk in _subset_chunks(m):
            yield _chunk_sum(flat, m, chunk)
        return
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(max_workers=workers) as pool:
        pending = deque()
        for chunk in _subset_chunks(m):
            pending.append(pool.submit(_chunk_sum, flat, m, chunk))
            if len(pending) > 2 * workers:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()


def permanent(g: np.ndarray) -> complex:
    """Permanent by Glynn's formula (Glynn, European J. Combin. 31, 1887
    (2010)): the mean over sign vectors delta with delta_n = +1 of
    (prod_j delta_j) prod_i sum_j delta_j g_ij. Row k of ``delta`` has
    delta_j = -1 where bit j of k is set, and k < 2^(n-1) leaves
    delta_n = +1; one product ``delta @ g.T`` gives every vector's row
    sums. There are 2^(n-1) vectors for n >= 1 and one, the empty vector,
    at n = 0, whose mean is the 0 x 0 permanent, 1. Peak memory is those
    two 2^(n-1)-row arrays, 20.3 MiB (traced) at n = 16.

    Error envelope against Ryser's sum in exact integers (relative error),
    Gaussian-integer entries a + bi at n = 10..16, 5 matrices per size:
    below 1.4e-14 with a, b in -9..9 and below 2.4e-14 with a in 1..3 and
    b in -1..1. Ryser's signed subset terms cancel by up to 7e7 on the
    latter at n = 16 and cost it up to 6e-10; Glynn's terms do not.
    """
    g = _square(g, complex)
    n = g.shape[0]
    if n > PERMANENT_LIMIT:
        raise ResourceLimitError(f"size {n} exceeds the permanent limit of {PERMANENT_LIMIT}")
    rows = ((1 << n) + 1) >> 1
    delta = 1.0 - 2.0 * ((np.arange(rows)[:, None] >> np.arange(n)) & 1)
    return complex(delta.prod(axis=1) @ np.prod(delta @ g.T, axis=1)) / rows


def permanent_enum(g: np.ndarray) -> complex:
    """Permanent by brute force over all n! permutations (oracle)."""
    from itertools import permutations

    g = _square(g, complex)
    n = g.shape[0]
    if n > PERMANENT_ENUM_LIMIT:
        raise ResourceLimitError(
            f"factorial enumeration refused for n={n} > {PERMANENT_ENUM_LIMIT}")
    if n == 0:
        return 1.0 + 0.0j
    total = 0.0 + 0.0j
    for perm in permutations(range(n)):
        prod = 1.0 + 0.0j
        for i, p in enumerate(perm):
            prod *= g[i, p]
        total += prod
    return complex(total)


def permanent_via_hafnian(g: np.ndarray) -> complex:
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
    return hafnian_fast(block)
