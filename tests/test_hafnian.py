"""Tests for Hafnian and permanent evaluation.

The enumeration routine is the oracle: it is the defining sum over
perfect matchings, so the fast path is validated against it rather than
against any frozen constant.
"""
import numpy as np
import pytest

from hdgbs.errors import ContractViolationError, ResourceLimitError
from hdgbs.hafnian import (hafnian_enum, hafnian_fast, permanent,
                           permanent_enum, permanent_via_hafnian)
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
        hafnian_fast(np.zeros((42, 42)), ceiling=40)


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
    b = random_symmetric(12, seed=8)
    assert hafnian_fast(b, workers=1) == hafnian_fast(b, workers=2)


def test_hafnian_scaling_invariance():
    # internal normalization must not change results for badly scaled input
    b = random_symmetric(8, seed=9) * 1e6
    small = b / 1e6
    assert hafnian_fast(b) == pytest.approx(hafnian_fast(small) * (1e6) ** 4,
                                            rel=1e-10)


def test_permanent_identity():
    assert permanent(np.eye(3, dtype=complex)) == pytest.approx(1.0)


def test_permanent_all_ones():
    assert permanent(np.ones((2, 2), dtype=complex)) == pytest.approx(2.0)


def test_permanent_matches_factorial_enumeration():
    rng = np.random.default_rng(3)
    for _ in range(5):
        g = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        ref = permanent_enum(g)
        assert abs(permanent(g) - ref) <= 1e-12 * max(1.0, abs(ref))


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
