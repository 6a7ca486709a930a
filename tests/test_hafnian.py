"""Tests for Hafnian and permanent evaluation.

The enumeration routine is the oracle: it is the defining sum over
perfect matchings, so the fast path is validated against it rather than
against any frozen constant. Above its limit the matching recursion in
extended precision takes its place.
"""
import functools
import itertools
import math
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hdgbs import hafnian as hafnian_module
from hdgbs.circuit import adjacency, build_instance
from hdgbs.errors import ContractViolationError, ResourceLimitError
from hdgbs.hafnian import (_STACK, _power_traces, _subset_chunks, hafnian_enum,
                           hafnian_fast, permanent, permanent_enum, permanent_via_hafnian)
from hdgbs.matrices import random_symmetric, reduce_by_pattern


def test_hafnian_empty_matrix_is_one():
    assert hafnian_enum(np.zeros((0, 0))) == 1.0 + 0.0j
    assert hafnian_fast(np.zeros((0, 0))) == 1.0 + 0.0j


def test_hafnian_odd_size_is_zero():
    b = random_symmetric(3, seed=1)
    assert hafnian_enum(b) == 0.0j
    assert hafnian_fast(b) == 0.0j


def test_hafnian_two_by_two_is_off_diagonal():
    b = np.array([[0.7, 2.5 - 1j], [2.5 - 1j, -0.3]], dtype=complex)
    assert hafnian_enum(b) == pytest.approx(2.5 - 1j)
    assert hafnian_fast(b) == pytest.approx(2.5 - 1j)


def test_hafnian_all_ones_counts_matchings():
    b = np.ones((4, 4), dtype=complex)
    assert hafnian_enum(b) == pytest.approx(3.0)        # (4-1)!! matchings
    assert hafnian_fast(b) == pytest.approx(3.0, rel=1e-12)


def test_hafnian_enum_resource_limit():
    with pytest.raises(ResourceLimitError):
        hafnian_enum(random_symmetric(16, seed=2))


def test_hafnian_fast_rejects_non_symmetric():
    b = np.arange(16, dtype=complex).reshape(4, 4)
    with pytest.raises(ContractViolationError):
        hafnian_fast(b)


def test_hafnian_fast_ceiling():
    with pytest.raises(ResourceLimitError):
        hafnian_fast(np.zeros((42, 42)))


def test_hafnian_diagonal_only_is_zero():
    b = np.diag([1.0 + 1j, 2.0, 3.0, 4.0]).astype(complex)
    assert hafnian_fast(b) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("n", [2, 4, 6, 8, 10, 12])
def test_hafnian_fast_matches_enumeration(n):
    for trial in range(12 if n < 12 else 4):
        b = random_symmetric(n, seed=1000 * n + trial)
        ref = hafnian_enum(b)
        got = hafnian_fast(b)
        assert abs(got - ref) <= 1e-10 * max(1.0, abs(ref))


def test_hafnian_multilinearity_in_row_and_column():
    # scaling row i and column i by lam scales the hafnian by lam, since
    # every matching touches index i exactly once
    b = random_symmetric(8, seed=77)
    lam = 0.37 - 1.21j
    scaled = b.copy()
    scaled[2, :] *= lam
    scaled[:, 2] *= lam
    scaled[2, 2] /= lam          # diagonal got the factor twice
    ref = hafnian_fast(b)
    assert hafnian_fast(scaled) == pytest.approx(lam * ref, rel=1e-10)


def test_hafnian_workers_bit_identical():
    # at n = 24 the 924 subsets of size 6 and the 792 of size 7 each span
    # two chunks, so chunk boundaries inside one size are exercised too
    sizes = [[offsets.shape[1] // 2 for offsets in chunk] for chunk in _subset_chunks(12)]
    assert any(a[-1] == b[0] for a, b in zip(sizes, sizes[1:]))
    b = random_symmetric(24, seed=8)
    serial = hafnian_fast(b, workers=1)
    assert hafnian_fast(b, workers=2) == serial
    assert hafnian_fast(b, workers=3) == serial


@pytest.mark.parametrize("m", [1, 2, 5, 9, 12])
def test_subset_chunks_list_every_subset_once_in_canonical_order(m):
    # _power_traces gathers with mode="clip", which relies on every offset
    # lying in [0, 4m^2) and on each subset being whole index pairs; row i
    # of X B_S is row cols[i] ^ 1 of B
    subsets = []
    for chunk in _subset_chunks(m):
        assert sum(offsets.size for offsets in chunk) <= _STACK or \
            sum(len(offsets) for offsets in chunk) == 1
        for offsets in chunk:
            assert offsets.min() >= 0 and offsets.max() < 4 * m * m
            cols = offsets[:, 0, :] % (2 * m)
            assert np.all(offsets % (2 * m) == cols[:, None, :])
            assert np.all(offsets // (2 * m) == (cols ^ 1)[:, :, None])
            assert np.all(cols[:, 0::2] % 2 == 0)
            assert np.all(cols[:, 1::2] == cols[:, 0::2] + 1)
            subsets += [tuple(row[0::2] // 2) for row in cols]
    assert subsets == sorted(set(subsets), key=lambda s: (len(s), s))
    assert len(subsets) == 2 ** m - 1


def test_subsets_fit_one_chunk_exactly_when_their_entries_fit_the_stack():
    # the (2s)^2 entries of all subsets add up to m (m + 1) 2^m; _hafnians
    # sizes its groups of matrices on that sum, which is one chunk exactly
    # when it fits _STACK (up to m = 9)
    for m in range(1, 13):
        assert sum(offsets.size for chunk in _subset_chunks(m) for offsets in chunk) \
            == m * (m + 1) * 2 ** m
        fits = m * (m + 1) * 2 ** m <= _STACK
        assert (len(list(_subset_chunks(m))) == 1) == fits
        assert fits == (m <= 9)


@pytest.mark.parametrize("count", [1, 2, 3])
@pytest.mark.parametrize("m", [1, 2, 3, 6, 10])
def test_power_traces_match_matrix_powers(m, count):
    # stage oracle: out[i, k-1, c] = tr((X B_S)^k) for matrix i and subset c,
    # with X swapping the two indices of each pair. m = 1 and 2 form no
    # product; from m = 3 on the traces above ceil(m/2) pair the top power
    # with lower ones, and m = 10 spans several chunks, with four real
    # products per block
    stack = _stack_of(2 * m, count, seed=60 + m)
    chunks = list(_subset_chunks(m))
    assert (len(chunks) > 1) == (m == 10)
    for offsets in itertools.chain.from_iterable(chunks):
        cols = offsets[:, 0, :] % (2 * m)
        out = np.empty((count, m, len(cols)), dtype=complex)
        _power_traces(stack.reshape(count, -1), m, offsets, out)
        swap = np.kron(np.eye(cols.shape[1] // 2), [[0.0, 1.0], [1.0, 0.0]])
        for i in range(count):
            xb = swap @ stack[i][cols[:, :, None], cols[:, None, :]]
            ref = [np.trace(np.linalg.matrix_power(xb, k), axis1=1, axis2=2)
                   for k in range(1, m + 1)]
            np.testing.assert_allclose(out[i], ref, rtol=1e-12, atol=0)


def test_concurrent_calls_agree_with_serial_ones():
    # eight threads call hafnian_fast at once, with a short switch
    # interval; every result must equal the serial one
    mats = [random_symmetric(n, seed=40 + n) for n in range(2, 20, 2)]
    expected = [hafnian_fast(b) for b in mats]
    results, errors = [], []

    def work():
        try:
            results.append([hafnian_fast(b) for b in mats])
        except Exception as exc:        # surfaced by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert results == [expected] * 8


def test_hafnian_threads_keep_few_chunks_in_flight(monkeypatch):
    # the thread pool must not draw the whole subset stream ahead of the
    # workers: at most 2 * workers chunks wait, plus the one being handed out
    state = {"yielded": 0, "done": 0, "peak": 0}
    lock = threading.Lock()
    real_chunks = hafnian_module._subset_chunks

    def counting_chunks(m):
        for chunk in real_chunks(m):
            with lock:
                state["yielded"] += 1
                state["peak"] = max(state["peak"], state["yielded"] - state["done"])
            yield chunk

    def slow_sum(b, m, chunk):
        time.sleep(0.001)
        with lock:
            state["done"] += 1
        return [0j]

    monkeypatch.setattr(hafnian_module, "_subset_chunks", counting_chunks)
    monkeypatch.setattr(hafnian_module, "_chunk_sum", slow_sum)
    hafnian_fast(random_symmetric(28, seed=3), workers=2)
    assert state["done"] == state["yielded"] > 20
    assert state["peak"] <= 2 * 2 + 1


# Stacks: (..., n, n) input evaluates every matrix in shared numpy calls,
# and each value must equal the one the matrix gives alone, bit for bit.

def _stack_of(n: int, count: int, seed: int) -> np.ndarray:
    return np.array([random_symmetric(n, seed=seed + i) for i in range(count)]
                    ).reshape(count, n, n)


def _bits(values) -> bytes:
    return np.asarray(values, dtype=complex).tobytes()


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5, 6, 8, 10, 12, 14, 16, 18, 20])
def test_stacked_hafnian_equals_per_matrix_bit_for_bit(n):
    # n = 20 (m = 10) streams several chunks per matrix
    stack = _stack_of(n, 3 if n >= 18 else 5, seed=100 + n)
    per = [hafnian_fast(b) for b in stack]
    assert all(type(v) is complex for v in per)
    got = hafnian_fast(stack)
    assert got.shape == (len(stack),) and got.dtype == complex
    assert _bits(got) == _bits(per)


def test_stack_larger_than_one_group_is_bit_identical():
    # a group holds _STACK // (m (m + 1) 2^m) = 682 matrices at m = 3, so
    # 700 of them take two groups; leading axes are kept in the result
    stack = _stack_of(6, 700, seed=7)
    per = [hafnian_fast(b) for b in stack]
    assert 700 > _STACK // (3 * 4 * 2 ** 3)
    got = hafnian_fast(stack.reshape(7, 100, 6, 6))
    assert got.shape == (7, 100)
    assert _bits(got) == _bits(per)


def test_stacked_hafnian_of_zero_member_is_zero():
    stack = _stack_of(6, 3, seed=20)
    stack[1] = 0.0
    got = hafnian_fast(stack)
    assert _bits(got[1]) == _bits(0j)
    assert _bits(got[[0, 2]]) == _bits([hafnian_fast(stack[0]), hafnian_fast(stack[2])])
    assert _bits(hafnian_fast(np.zeros((2, 4, 4)))) == _bits([0j, 0j])
    assert hafnian_fast(np.zeros((0, 4, 4))).shape == (0,)


def test_stacked_hafnian_rejects_a_non_symmetric_member():
    stack = _stack_of(4, 3, seed=30)
    stack[2, 0, 1] += 1e-3
    with pytest.raises(ContractViolationError, match="not symmetric"):
        hafnian_fast(stack)


@pytest.mark.parametrize("n, count", [(6, 1400), (20, 2)])
def test_stacked_hafnian_workers_bit_identical(n, count):
    # several groups (n = 6) and several chunks per matrix (n = 20) go to
    # the pool; the sums are added in the same order as serially
    stack = _stack_of(n, count, seed=40)
    serial = hafnian_fast(stack)
    assert _bits(hafnian_fast(stack, workers=2)) == _bits(serial)


def test_hafnian_scaling_invariance():
    # internal normalization must not change results for badly scaled input
    b = random_symmetric(8, seed=9) * 1e6
    small = b / 1e6
    assert hafnian_fast(b) == pytest.approx(hafnian_fast(small) * (1e6) ** 4,
                                            rel=1e-10)


# Exact references above the enumeration limit. The inclusion-exclusion sum
# cancels terms far larger than the Hafnian, so its relative error grows
# with N; each tolerance sits about ten times above the largest error
# measured with the eigenvalue kernel and with the matrix-power kernel
# (CHANGES lists both).


def _matchings(n: int) -> int:
    return math.prod(range(n - 1, 0, -2))          # (n-1)!!


def _all_ones_cancellation(n: int) -> float:
    """Sum of the magnitudes of the signed subset terms of the all-ones
    Hafnian over its value: each size-s subset contributes
    C(2m, m) / 4^m * (2s)^m, and they alternate in sign with m - s."""
    m = n // 2
    terms = sum(math.comb(m, s) * (2 * s) ** m for s in range(1, m + 1))
    return terms * math.comb(2 * m, m) / 4 ** m / _matchings(n)


@pytest.mark.parametrize("n", range(20, 34, 2))
def test_hafnian_fast_rank_one_is_matchings_times_product(n):
    rng = np.random.default_rng(n)
    v = rng.uniform(0.5, 1.5, n) * np.exp(2j * np.pi * rng.uniform(size=n))
    ref = _matchings(n) * np.prod(v)
    assert abs(hafnian_fast(np.outer(v, v)) - ref) <= 1e-10 * abs(ref)


@pytest.mark.parametrize("n", range(20, 34, 2))
def test_hafnian_fast_all_ones_counts_matchings(n):
    # measured relative error / cancellation factor stays below 5e-15
    # (3.2e-7 at N = 32, where the factor is 6.7e7)
    ref = _matchings(n)
    tol = 5e-14 * _all_ones_cancellation(n)
    assert abs(hafnian_fast(np.ones((n, n))) - ref) <= tol * ref


def test_hafnian_fast_block_diagonal_is_product_of_blocks():
    blocks = [random_symmetric(10, seed=300 + i) for i in range(3)]
    b = np.zeros((30, 30), dtype=complex)
    for i, blk in enumerate(blocks):
        b[10 * i:10 * i + 10, 10 * i:10 * i + 10] = blk
    ref = np.prod([hafnian_enum(blk) for blk in blocks])
    assert abs(hafnian_fast(b) - ref) <= 5e-7 * abs(ref)


def _extended_power_trace_hafnian(b: np.ndarray) -> complex:
    """The power-trace sum of ``hafnian_fast`` in 80-bit extended precision
    (``np.clongdouble``), one subset size at a time, with every power up to
    m formed explicitly and no rescale. Its rounding error is about 2^11
    times smaller than that of a double-precision evaluation, so it
    resolves the error of the kernel on dense random matrices, where no
    closed form exists."""
    b = np.asarray(b, dtype=np.clongdouble)
    m = b.shape[0] // 2
    a = b[np.arange(2 * m) ^ 1]                    # X B: rows swapped within each pair
    total = np.clongdouble(0)
    for s in range(1, m + 1):
        pairs = np.array(list(itertools.combinations(range(m), s)))
        idx = np.stack([2 * pairs, 2 * pairs + 1], axis=2).reshape(len(pairs), 2 * s)
        p = a[idx[:, :, None], idx[:, None, :]]
        power, traces = p, []
        for _ in range(m):
            traces.append(np.trace(power, axis1=1, axis2=2))
            power = power @ p
        coeffs = [np.ones(len(pairs), dtype=np.clongdouble)]
        for j in range(1, m + 1):
            coeffs.append(sum(traces[k - 1] * coeffs[j - k] for k in range(1, j + 1)) / (2 * j))
        total += (-1) ** (m - s) * coeffs[m].sum()
    return complex(total)


def test_extended_reference_matches_enumeration():
    b = random_symmetric(10, seed=7)
    assert abs(_extended_power_trace_hafnian(b) - hafnian_enum(b)) <= 1e-14 * abs(hafnian_enum(b))


def _matching_hafnian(b: np.ndarray) -> complex:
    """Hafnian by the matching recursion h(S) = sum_{j in S, j != i} B_ij
    h(S - {i, j}), with i the lowest index of S and h({}) = 1, over the
    bitmasks S of the index set, one popcount layer at a time, in 80-bit
    extended precision. Every term adds products of entries with no
    alternating sign, so its error does not grow with the cancellation that
    limits the power-trace sum; it costs O(N 2^N)."""
    b = np.asarray(b, dtype=np.clongdouble)
    n = b.shape[0]
    masks = np.arange(1 << n)
    popcount = np.bitwise_count(masks)
    h = np.zeros(1 << n, dtype=np.clongdouble)
    h[0] = 1
    for size in range(2, n + 1, 2):
        layer = masks[popcount == size]
        low = np.bitwise_count((layer & -layer) - 1).astype(np.intp)   # lowest set bit
        rest = layer ^ (1 << low)
        acc = np.zeros(len(layer), dtype=np.clongdouble)
        for j in range(1, n):
            has = (rest >> j) & 1 == 1
            acc[has] += b[low[has], j] * h[rest[has] ^ (1 << j)]
        h[layer] = acc
    return complex(h[-1])


@pytest.mark.parametrize("n", [0, 2, 4, 6, 8, 10, 12])
def test_matching_reference_matches_enumeration(n):
    for seed in range(3):
        b = random_symmetric(n, seed=900 + 10 * n + seed)
        ref = hafnian_enum(b)
        assert abs(_matching_hafnian(b) - ref) <= 1e-14 * max(1.0, abs(ref))


def test_matching_reference_matches_extended_power_traces():
    b = random_symmetric(16, seed=5)
    ref = _extended_power_trace_hafnian(b)
    assert abs(_matching_hafnian(b) - ref) <= 1e-14 * abs(ref)


@functools.cache
def _instance_adjacency(cycles: int) -> np.ndarray:
    return adjacency(build_instance(0.8, 6, 3, cycles, seed=42))


def _instance_submatrices(cycles: int, n: int, count: int) -> list:
    """B_n of ``count`` random collision-free patterns with n photons on the
    216-mode (0.8, 6, 3, cycles) instance of seed 42, the README's example
    lattice; the patterns of each (cycles, n) come from one fixed seed."""
    a = _instance_adjacency(cycles)
    rng = np.random.default_rng(100 * cycles + n)
    patterns = np.zeros((count, len(a)), dtype=int)
    for row in patterns:
        row[rng.choice(len(a), n, replace=False)] = 1
    return list(reduce_by_pattern(a, patterns))


@pytest.mark.parametrize("cycles, n, bound", [
    (1, 12, 3e-10), (1, 14, 3e-9), (1, 16, 3e-8),
    (3, 12, 3e-12), (3, 14, 6e-12), (3, 16, 1e-11)])
def test_hafnian_fast_error_on_instance_submatrices(cycles, n, bound):
    # each bound is about ten times the worst relative error that the
    # complex-matmul kernel gave on these 20 matrices, set before the kernel
    # changed: 2.8e-11, 3.3e-10, 3.3e-9 on the one-cycle instance and
    # 2.9e-13, 6.0e-13, 1.1e-12 on the three-cycle one
    for b in _instance_submatrices(cycles, n, 20):
        ref = _matching_hafnian(b)
        assert abs(hafnian_fast(b) - ref) <= bound * abs(ref)


@pytest.mark.parametrize("n, seed", [(20, 1), (24, 1)])
def test_hafnian_fast_matches_extended_precision(n, seed):
    # measured relative errors 5.1e-13 and 1.1e-10 with complex matmuls,
    # 5.1e-13 and 1.2e-10 with the real chain; the eigenvalue kernel gave
    # 2.0e-11 and 6.5e-10 on the same matrices, so this tolerance is set
    # from the matrix-power kernel alone
    b = random_symmetric(n, seed=seed)
    ref = _extended_power_trace_hafnian(b)
    assert abs(hafnian_fast(b) - ref) <= 1e-9 * abs(ref)


@pytest.mark.parametrize("n", range(12, 17))
def test_permanent_via_hafnian_matches_ryser_at_large_n(n):
    rng = np.random.default_rng(500 + n)
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    ref = permanent(g)
    assert abs(permanent_via_hafnian(g) - ref) <= 2e-8 * abs(ref)


_SMALL_EVEN = st.sampled_from([2, 4, 6, 8, 10, 12])
_SEEDS = st.integers(0, 2 ** 32 - 1)


def _close(got: complex, ref: complex) -> bool:
    return abs(got - ref) <= 1e-10 * max(1.0, abs(ref))


@settings(max_examples=30, deadline=None)
@given(n=_SMALL_EVEN, seed=_SEEDS)
def test_hafnian_fast_invariant_under_simultaneous_permutation(n, seed):
    b = random_symmetric(n, seed)
    perm = np.random.default_rng(seed).permutation(n)
    assert _close(hafnian_fast(b[np.ix_(perm, perm)]), hafnian_fast(b))


@settings(max_examples=30, deadline=None)
@given(n=_SMALL_EVEN, seed=_SEEDS,
       c=st.complex_numbers(min_magnitude=0.1, max_magnitude=10.0))
def test_hafnian_fast_scales_as_c_to_the_m(n, seed, c):
    b = random_symmetric(n, seed)
    assert _close(hafnian_fast(c * b), c ** (n // 2) * hafnian_fast(b))


@settings(max_examples=30, deadline=None)
@given(n=_SMALL_EVEN, seed=_SEEDS, data=st.data())
def test_hafnian_fast_is_linear_in_one_row_and_column(n, seed, data):
    # Haf is linear in the off-diagonal entries of row/column i (every
    # matching uses exactly one of them), and the diagonal does not enter
    i = data.draw(st.integers(0, n - 1))
    b = random_symmetric(n, seed)
    rng = np.random.default_rng(seed + 1)
    w = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    alpha, beta = rng.standard_normal(2) + 1j * rng.standard_normal(2)

    def with_row(vec):
        out = b.copy()
        out[i, :] = vec
        out[:, i] = vec
        return out

    mixed = hafnian_fast(with_row(alpha * b[i] + beta * w))
    ref = alpha * hafnian_fast(b) + beta * hafnian_fast(with_row(w))
    assert _close(mixed, ref)


def test_permanent_identity():
    assert permanent(np.eye(3, dtype=complex)) == pytest.approx(1.0)
    # the 0 x 0 permanent is 1: Glynn's mean is then over the empty sign vector alone
    assert permanent(np.eye(0)) == 1.0


def test_permanent_all_ones():
    assert permanent(np.ones((2, 2), dtype=complex)) == pytest.approx(2.0)


def test_permanent_matches_factorial_enumeration():
    rng = np.random.default_rng(3)
    for _ in range(5):
        g = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        ref = permanent_enum(g)
        assert abs(permanent(g) - ref) <= 1e-12 * max(1.0, abs(ref))


def _exact_ryser(g_re, g_im) -> tuple[complex, float]:
    """Ryser's sum for the Gaussian-integer matrix g_re + i g_im (lists of
    int rows), in Python integers with Gray-code column updates: the exact
    permanent, independent of ``permanent``'s matrix product, and the
    summed magnitude of its signed subset terms."""
    n = len(g_re)
    sum_re, sum_im = [0] * n, [0] * n
    total_re = total_im = 0
    magnitude = 0.0
    gray = 0
    for k in range(1, 1 << n):
        j = (k & -k).bit_length() - 1     # the column that step k toggles
        gray ^= 1 << j
        step = 1 if gray >> j & 1 else -1
        for i in range(n):
            sum_re[i] += step * g_re[i][j]
            sum_im[i] += step * g_im[i][j]
        p_re, p_im = 1, 0
        for x, y in zip(sum_re, sum_im):
            p_re, p_im = p_re * x - p_im * y, p_re * y + p_im * x
        if (n - gray.bit_count()) % 2:
            p_re, p_im = -p_re, -p_im
        total_re += p_re
        total_im += p_im
        magnitude += abs(complex(p_re, p_im))
    return complex(total_re, total_im), magnitude


def _gaussian_integer_matrix(n: int, re_range: tuple, im_range: tuple, seed: int):
    rng = np.random.default_rng(seed)
    return (rng.integers(*re_range, (n, n)).tolist(),
            rng.integers(*im_range, (n, n)).tolist())


@pytest.mark.parametrize("n", [10, 13, 16])
def test_permanent_matches_exact_ryser_on_gaussian_integers(n):
    # entries a + bi with a, b in -9..9; measured relative errors 0 (every
    # partial product is exact in doubles), 2.2e-13 and 4.8e-13
    g_re, g_im = _gaussian_integer_matrix(n, (-9, 10), (-9, 10), seed=700 + n)
    exact, _ = _exact_ryser(g_re, g_im)
    got = permanent(np.array(g_re) + 1j * np.array(g_im))
    assert abs(got - exact) <= 1e-10 * abs(exact)


@pytest.mark.parametrize("n", [10, 13, 16])
def test_permanent_error_follows_ryser_cancellation(n):
    # entries a + bi with a in 1..3 and b in -1..1, as in the benchmark's
    # permanent: Ryser's terms' summed magnitude is 4.1e4, 1.6e6 and 6.9e7
    # times the permanent, and a Ryser sum's error stayed below 7.3e-18 of it
    # (9.3e-11 relative at n = 16); Glynn's is below 2e-21 of it (8.5e-15)
    g_re, g_im = _gaussian_integer_matrix(n, (1, 4), (-1, 2), seed=800 + n)
    exact, magnitude = _exact_ryser(g_re, g_im)
    got = permanent(np.array(g_re) + 1j * np.array(g_im))
    assert abs(got - exact) <= 1e-16 * magnitude


@pytest.mark.parametrize("n", [13, 16])
def test_permanent_is_accurate_on_positive_mean_entries(n):
    # the kind of entries of the test above, where Ryser's terms cancel by up
    # to 7e7; Glynn's do not, and the measured relative errors are 3.1e-16
    # and 2.5e-15 (Ryser's sum gave 5.3e-12 and 3.9e-10)
    g_re, g_im = _gaussian_integer_matrix(n, (1, 4), (-1, 2), seed=900 + n)
    exact, _ = _exact_ryser(g_re, g_im)
    got = permanent(np.array(g_re) + 1j * np.array(g_im))
    assert abs(got - exact) <= 1e-12 * abs(exact)


def test_permanent_rejects_non_square():
    with pytest.raises(ContractViolationError):
        permanent(np.ones((2, 3)))


@pytest.mark.parametrize("shape", [(2, 3), (3,)])
@pytest.mark.parametrize("engine", [
    hafnian_enum, hafnian_fast, permanent, permanent_enum, permanent_via_hafnian,
    lambda a: reduce_by_pattern(a, [1] * a.shape[0])],
    ids=["hafnian_enum", "hafnian_fast", "permanent", "permanent_enum",
         "permanent_via_hafnian", "reduce_by_pattern"])
def test_matrix_engines_reject_non_square(engine, shape):
    with pytest.raises(ContractViolationError, match="expected a square matrix"):
        engine(np.ones(shape))


def test_permanent_resource_limit():
    with pytest.raises(ResourceLimitError):
        permanent(np.eye(17))


def test_permanent_via_hafnian_scalar():
    g = np.array([[0.8 - 0.6j]])
    assert permanent_via_hafnian(g) == pytest.approx(0.8 - 0.6j)


def test_permanent_via_hafnian_ones():
    assert permanent_via_hafnian(np.ones((2, 2))) == pytest.approx(2.0)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_permanent_via_hafnian_matches_permanent(n):
    rng = np.random.default_rng(40 + n)
    for _ in range(4):
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        ref = permanent(g)
        got = permanent_via_hafnian(g)
        assert abs(got - ref) <= 1e-10 * max(1.0, abs(ref))


@pytest.mark.parametrize("value", [np.nan, np.inf], ids=["NaN", "inf"])
def test_hafnian_fast_rejects_non_finite_matrix(value):
    # a NaN or infinite entry leaves a NaN symmetry defect, which used to
    # pass the tolerance check and give nan
    b = random_symmetric(4, seed=1)
    b[0, 3] = b[3, 0] = value
    with np.errstate(invalid="ignore"):
        with pytest.raises(ContractViolationError, match="must be finite"):
            hafnian_fast(b)
        with pytest.raises(ContractViolationError, match="must be finite"):
            hafnian_fast(np.stack([random_symmetric(4, seed=2), b]))
