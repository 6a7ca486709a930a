"""Tests for random ensembles, pattern sub-matrices and matrix JSON."""
import math

import numpy as np
import pytest

from hdgbs.errors import ContractViolationError
from hdgbs.matrices import (assert_symmetric, assert_unitary, ginibre,
                            haar_isometry, haar_unitary,
                            matrix_from_json, matrix_to_json, random_symmetric,
                            reduce_by_pattern, symmetry_defect,
                            unitarity_defect)


@pytest.mark.parametrize("m", [1, 2, 3, 17, 64, 200, 512])
def test_haar_unitary_is_unitary(m):
    u = haar_unitary(m, seed=11 + m)
    assert unitarity_defect(u) <= 1e-10


def test_haar_unitary_m1_unit_modulus():
    u = haar_unitary(1, seed=4)
    assert u.shape == (1, 1)
    assert abs(abs(u[0, 0]) - 1.0) < 1e-12


def test_haar_unitary_entry_second_moment():
    # column normalization symmetry forces E|U_ij|^2 = 1/m for every entry;
    # Monte Carlo check on the (0, 0) entry at 3 standard errors
    m, samples = 64, 4000
    rng = np.random.default_rng(123)
    vals = np.array([abs(haar_unitary(m, rng)[0, 0]) ** 2 for _ in range(samples)])
    # |U00|^2 ~ Beta(1, m-1): var = (m-1) / (m^2 (m+1))
    se = math.sqrt((m - 1) / (m ** 2 * (m + 1.0)) / samples)
    assert abs(vals.mean() - 1.0 / m) <= 3 * se


def test_haar_unitary_rejects_zero_dim():
    with pytest.raises(ContractViolationError):
        haar_unitary(0, seed=0)


def test_haar_unitary_deterministic():
    assert np.array_equal(haar_unitary(8, seed=99), haar_unitary(8, seed=99))


def test_haar_isometry_columns_orthonormal():
    v = haar_isometry(20, 5, seed=3)
    assert v.shape == (20, 5)
    assert np.abs(v.conj().T @ v - np.eye(5)).max() < 1e-12


def test_ginibre_shape_and_determinism():
    g = ginibre(2, 3, 1.0, seed=7)
    assert g.shape == (2, 3)
    assert np.array_equal(g, ginibre(2, 3, 1.0, seed=7))


def test_ginibre_second_moment():
    # E|z|^2 = variance; |z|^2 is exponential so its std equals the mean
    g = ginibre(250, 400, 1.0, seed=21)
    mean = np.mean(np.abs(g) ** 2)
    se = 1.0 / math.sqrt(g.size)
    assert abs(mean - 1.0) <= 3 * se


def test_ginibre_variance_passthrough():
    m = 200
    g = ginibre(250, 400, 1.0 / m, seed=22)
    mean = np.mean(np.abs(g) ** 2)
    se = (1.0 / m) / math.sqrt(g.size)
    assert abs(mean - 1.0 / m) <= 3 * se  # sample second moment ~ 0.005


def test_ginibre_rejects_bad_variance():
    for variance in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ContractViolationError):
            ginibre(2, 2, variance, seed=0)


def test_reduce_by_pattern_all_zeros():
    a = np.arange(9, dtype=complex).reshape(3, 3)
    out = reduce_by_pattern(a + a.T, [0, 0, 0])
    assert out.shape == (0, 0)


def test_reduce_by_pattern_repetition():
    a = np.array([[1.0, 2.0], [2.0, 5.0]], dtype=complex)
    out = reduce_by_pattern(a, [2, 0])
    assert out.shape == (2, 2)
    assert np.all(out == a[0, 0])


def test_reduce_by_pattern_selection():
    a = np.arange(9, dtype=complex).reshape(3, 3)
    a = a + a.T
    out = reduce_by_pattern(a, [1, 0, 1])
    assert np.array_equal(out, a[np.ix_([0, 2], [0, 2])])


def test_reduce_by_pattern_preserves_symmetry():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    a = x + x.T
    out = reduce_by_pattern(a, [2, 0, 1, 3, 0, 1])
    assert symmetry_defect(out) < 1e-12


def test_reduce_by_pattern_length_mismatch():
    with pytest.raises(ContractViolationError):
        reduce_by_pattern(np.eye(3), [1, 1])


def test_reduce_by_pattern_stack_of_patterns():
    a = random_symmetric(4, seed=3)
    patterns = [[2, 0, 1, 0], [0, 1, 1, 1], [0, 0, 0, 3]]
    got = reduce_by_pattern(a, patterns)
    assert got.shape == (3, 3, 3)
    for sub, p in zip(got, patterns):
        assert np.array_equal(sub, reduce_by_pattern(a, p))
    with pytest.raises(ContractViolationError, match="photon total"):
        reduce_by_pattern(a, [[1, 0, 0, 0], [1, 1, 0, 0]])


def test_symmetric_product_full_k_equals_uut_reduction():
    # for a collision-free n, (U U^T)_{n,n} = V V^T with V the rows of U in n
    u = haar_unitary(6, seed=31)
    n = np.array([1, 0, 1, 1, 0, 0])
    v = u[n == 1]
    assert np.abs(reduce_by_pattern(u @ u.T, n) - v @ v.T).max() < 1e-12


def test_symmetric_product_matches_dense_projection():
    # (U I_K U^T)_{n,n} = V V^T with V the rows of U in n and its first K
    # columns: the product form of the collision-free probability oracle
    u = haar_unitary(6, seed=32)
    n = np.array([0, 1, 0, 0, 1, 0])
    k = 3
    i_k = np.zeros((6, 6))
    i_k[:k, :k] = np.eye(k)
    dense = reduce_by_pattern(u @ i_k @ u.T, n)
    v = u[n == 1, :k]
    assert np.abs(dense - v @ v.T).max() < 1e-12
    assert symmetry_defect(dense) < 1e-12


def test_matrix_json_round_trip():
    rng = np.random.default_rng(9)
    a = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
    back = matrix_from_json(matrix_to_json(a))
    assert np.array_equal(a, back)


def test_matrix_json_rejects_length_mismatch():
    obj = {"rows": 2, "cols": 2, "re": [1.0, 2.0, 3.0], "im": [0.0, 0.0, 0.0]}
    with pytest.raises(ContractViolationError):
        matrix_from_json(obj)


@pytest.mark.parametrize("pattern", [[0, 1.9, 1.2, 0], [0, float("nan"), 1, 1],
                                     [0, -1, 1, 0], [[1, 1, 0, 0], [0, 0.5, 1.5, 0]]],
                         ids=["fractional", "NaN", "negative", "fractional-in-stack"])
def test_pattern_entries_must_be_non_negative_integers(pattern):
    # a fractional count used to be truncated: [0, 1.9, 1.2, 0] read as [0, 1, 1, 0]
    with pytest.raises(ContractViolationError,
                       match="pattern entries must be non-negative integers"):
        reduce_by_pattern(random_symmetric(4, seed=2), pattern)


def test_integral_float_and_integer_patterns_agree():
    a = random_symmetric(4, seed=2)
    assert np.array_equal(reduce_by_pattern(a, [2.0, 0.0, 1.0, 1.0]),
                          reduce_by_pattern(a, np.array([2, 0, 1, 1], dtype=np.uint8)))


@pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["NaN", "inf"])
def test_symmetry_check_rejects_non_finite_entry_without_a_warning(value):
    # no np.errstate guard: the pytest settings turn a RuntimeWarning from
    # forming A - A^T into a failure
    a = np.eye(3, dtype=complex)
    a[1, 2] = a[2, 1] = value
    with pytest.raises(ContractViolationError, match="must be finite"):
        assert_symmetric(a)
    with pytest.raises(ContractViolationError, match="must be finite"):
        assert_symmetric(np.stack([np.eye(3), a]))


def test_unitary_checks_take_a_stack():
    # one call checks a stack: the defect per matrix, and a refusal naming
    # the first failing matrix by its flat index
    stack = np.stack([haar_unitary(3, seed=s) for s in range(6)]).reshape(2, 3, 3, 3)
    defects = unitarity_defect(stack)
    assert defects.shape == (2, 3)
    assert all(d == unitarity_defect(u) for d, u in zip(defects.ravel(), stack.reshape(6, 3, 3)))
    assert defects.max() <= 1e-10
    assert_unitary(stack)
    stack = stack.copy()
    stack[1, 1] *= 2.0
    stack[1, 2, 0, 0] = 5.0
    with pytest.raises(ContractViolationError,
                       match=r"^matrix 4 of the stack is not unitary \(defect 3\.000e\+00 "):
        assert_unitary(stack)
    with pytest.raises(ContractViolationError, match="square matrix or a stack"):
        unitarity_defect(np.ones((2, 3)))


@pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["NaN", "inf"])
def test_tolerance_checks_reject_non_finite_matrices(value):
    u = np.eye(3, dtype=complex)
    u[1, 2] = u[2, 1] = value
    with np.errstate(invalid="ignore"):
        with pytest.raises(ContractViolationError, match="not unitary"):
            assert_unitary(u)
        with pytest.raises(ContractViolationError, match="must be finite"):
            assert_symmetric(u)
    with pytest.raises(ContractViolationError, match="must be finite"):
        matrix_from_json(matrix_to_json(u))
