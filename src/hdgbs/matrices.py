"""Dense complex matrix utilities: random ensembles, pattern-indexed
sub-matrices, structural checks and the JSON interchange format.
The three intakes of scalar parameters live here too, none of which takes
a bool: ``_integer`` (counts), ``_real`` (real parameters) and ``_squeezing``.

All sampling is driven by an explicit seed (or a caller-owned
``numpy.random.Generator``); there is no module-level random state, so
identical seeds always reproduce bit-identical matrices. Annotations are
not evaluated, so ``numpy.random`` loads on the first draw, not on import.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from .errors import ContractViolationError

UNITARY_TOL = 1e-10
SYMMETRY_TOL = 1e-12


def as_rng(seed) -> np.random.Generator:
    """Accept an integer seed, a SeedSequence or a Generator and return a
    Generator; a seed is checked as in ``_seed_sequence``."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(_seed_sequence(seed))


def _seed_sequence(seed) -> np.random.SeedSequence:
    """Accept an integer seed or a SeedSequence and return a SeedSequence,
    the parent of the nested child seeds that sample lists spawn. A bool,
    or a seed numpy refuses such as a negative one, is a contract
    violation."""
    if isinstance(seed, np.random.SeedSequence):
        return seed
    if isinstance(seed, bool):
        raise ContractViolationError(f"bad seed {seed!r}: a bool is not a seed")
    try:
        return np.random.SeedSequence(seed)
    except (TypeError, ValueError) as exc:
        raise ContractViolationError(f"bad seed {seed!r}: {exc}") from exc


def ginibre(n: int, k: int, variance: float, seed) -> np.ndarray:
    """n x k matrix of i.i.d. complex normal entries, mean 0, variance
    ``variance`` (real and imaginary parts carry variance/2 each)."""
    n, k = _integer(n, "n", 1), _integer(k, "k", 1)
    variance = _real(variance, "variance", 0, math.inf, "()")
    rng = as_rng(seed)
    scale = math.sqrt(variance / 2.0)
    return scale * (rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k)))


def _square(a, dtype=None, stack: bool = False) -> np.ndarray:
    """``a`` as a square 2-D array, or with ``stack`` as a stack of square
    matrices of shape (..., n, n); any other shape is a contract violation."""
    a = np.asarray(a, dtype=dtype)
    if (a.ndim < 2 if stack else a.ndim != 2) or a.shape[-1] != a.shape[-2]:
        what = " or a stack of them" if stack else ""
        raise ContractViolationError(f"expected a square matrix{what}, got shape {a.shape}")
    return a


def _counts(pattern, modes: int, stack: bool = False) -> np.ndarray:
    """``pattern`` as an intp array of photon counts, shape (modes,), or with
    ``stack`` a stack of patterns (..., modes): the one intake of count
    patterns. A fractional, non-finite or negative entry is a contract
    violation rather than a count."""
    raw = np.asarray(pattern)
    with np.errstate(invalid="ignore"):
        counts = raw.astype(np.intp, copy=False)
    if (counts.ndim < 1 if stack else counts.ndim != 1) or counts.shape[-1] != modes:
        raise ContractViolationError(
            f"pattern shape {counts.shape} does not match {modes} modes")
    ok = counts >= 0
    if raw.dtype.kind not in "iu":
        ok &= counts == raw
    if not ok.all():
        raise ContractViolationError(
            f"pattern entries must be non-negative integers, got {raw[~ok][0]}")
    return counts


def _squeezing(r) -> np.ndarray:
    """``r``, one squeezing parameter or a 1-D array of them, as a float
    array once every entry is a finite real number >= 0 (a bool is not):
    the one check of squeezing."""
    if np.asarray(r).dtype.kind not in "iuf":
        raise ContractViolationError(
            f"squeezing parameters must be real numbers, got {r!r}")
    r = np.asarray(r, dtype=float)
    if r.ndim > 1:
        raise ContractViolationError(
            f"squeezing parameters must be one number or a 1-D array, got shape {r.shape}")
    bad = ~((r >= 0.0) & (r < math.inf))      # NaN fails both comparisons
    if bad.any():
        raise ContractViolationError(
            f"squeezing parameters must be finite and >= 0, got r={r[bad][0]}")
    return r


def haar_unitary(m: int, seed) -> np.ndarray:
    """Sample an m x m unitary from the Haar measure on U(m).

    Uses the QR factorization of a complex Ginibre matrix with each
    column rescaled by the phase of the corresponding diagonal entry of
    R, which makes the distribution exactly Haar rather than merely
    approximately so.
    """
    return haar_isometry(m, m, as_rng(seed))


def haar_isometry(m: int, k: int, seed) -> np.ndarray:
    """First k columns of a Haar-random element of U(m), as an m x k
    matrix with orthonormal columns. For k = m this is a Haar unitary."""
    m, k = _integer(m, "m"), _integer(k, "k")
    if not 1 <= k <= m:
        raise ContractViolationError(f"need 1 <= k <= m, got k={k}, m={m}")
    rng = as_rng(seed)
    z = (rng.standard_normal((m, k)) + 1j * rng.standard_normal((m, k))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


def reduce_by_pattern(a: np.ndarray, pattern) -> np.ndarray:
    """Repeat row/column i of a square matrix ``pattern[i]`` times.

    Rows and columns with a zero count are dropped, so the result is
    N x N with N the pattern total. An all-zero pattern yields a 0 x 0
    matrix. A stack of patterns, shape (..., modes), that share one total
    N gives the stack of their (..., N, N) sub-matrices.
    """
    a = _square(a)
    modes = a.shape[0]
    counts = _counts(pattern, modes, stack=True)
    totals = counts.sum(axis=-1)
    total = int(totals.flat[0]) if totals.size else 0
    if np.any(totals != total):
        raise ContractViolationError("patterns in one stack must share a photon total")
    idx = np.repeat(np.tile(np.arange(modes), totals.size), counts.ravel())
    idx = idx.reshape(counts.shape[:-1] + (total,))
    return a[idx[..., :, None], idx[..., None, :]]


def random_symmetric(n: int, seed) -> np.ndarray:
    """Random complex symmetric matrix X + X^T with Ginibre X."""
    n = _integer(n, "n", 0)
    rng = as_rng(seed)
    x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return x + x.T


def unitarity_defect(u: np.ndarray):
    """Max-norm of U U^dagger - I per matrix of ``u``, shape (..., n, n)."""
    u = _square(u, stack=True)
    return np.abs(u @ u.conj().swapaxes(-2, -1) - np.eye(u.shape[-1])).max(axis=(-2, -1))


def symmetry_defect(a: np.ndarray) -> float:
    """Max-norm of A - A^T."""
    a = np.asarray(a)
    return float(np.max(np.abs(a - a.T))) if a.size else 0.0


def assert_unitary(u: np.ndarray) -> None:
    """Refuse ``u``, a matrix or a stack (..., n, n), with a defect over UNITARY_TOL."""
    d = np.asarray(unitarity_defect(u))
    bad = np.flatnonzero(~(d <= UNITARY_TOL))     # a non-finite entry gives a NaN defect
    if bad.size:
        where = f" {bad[0]} of the stack" if d.ndim else ""
        raise ContractViolationError(f"matrix{where} is not unitary "
                                     f"(defect {d.flat[bad[0]]:.3e} > {UNITARY_TOL:.1e})")


def assert_symmetric(a: np.ndarray) -> np.ndarray:
    """Reject any matrix of ``a`` (shape (..., n, n), n >= 1) whose max-norm
    of A - A^T exceeds SYMMETRY_TOL times max(1, max|A|). Returns max|A| per
    matrix, shape (...), so that callers need not take it a second time."""
    a = np.asarray(a)
    if a.size == 0:
        return np.zeros(a.shape[:-2])
    mag = np.abs(a).max(axis=(-2, -1))
    # checked before A - A^T, which would warn on inf - inf
    if not np.isfinite(mag).all():
        raise ContractViolationError("matrix entries must be finite")
    defect = np.abs(a - a.swapaxes(-2, -1)).max(axis=(-2, -1))
    if (defect > SYMMETRY_TOL * np.maximum(mag, 1.0)).any():
        raise ContractViolationError(
            f"matrix is not symmetric (defect {float(np.max(defect)):.3e})")
    return mag


def matrix_to_json(a: np.ndarray) -> dict:
    """Interchange form {"rows", "cols", "re", "im"} in row-major order."""
    a = np.asarray(a, dtype=complex)
    return {
        "rows": int(a.shape[0]),
        "cols": int(a.shape[1]),
        "re": a.real.ravel().tolist(),
        "im": a.imag.ravel().tolist(),
    }


def _integer(value, name: str, minimum: int | None = None) -> int:
    """``value`` as an int if it is an integer, a numpy one included, of at
    least ``minimum``: the one check of counts and JSON integers. A bool, a
    float such as 2.0 or any other type is a contract violation rather than
    a silent truncation."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ContractViolationError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ContractViolationError(f"{name} must be >= {minimum}, got {value}")
    return int(value)


def _real(value, name: str, low: float, high: float, ends: str = "[]") -> float:
    """``value`` as a float once it is a real number (an int or numpy real,
    not a bool, array or NaN) in the interval from ``low`` to ``high`` with
    ends "[]", "[)", "(]" or "()": the one check of real parameters."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    try:
        x = float(value) if real else math.nan
    except OverflowError:               # an int beyond float range
        x = math.inf if value > 0 else -math.inf
    if not ((low < x if ends[0] == "(" else low <= x)     # NaN fails both
            and (x < high if ends[1] == ")" else x <= high)):
        raise ContractViolationError(
            f"{name} must be a real number in {ends[0]}{low:g}, {high:g}{ends[1]}, "
            f"got {value!r}")
    return x


def matrix_from_json(obj: dict) -> np.ndarray:
    rows, cols = _integer(obj["rows"], "rows"), _integer(obj["cols"], "cols")
    re, im = obj["re"], obj["im"]
    if len(re) != rows * cols or len(im) != rows * cols:
        raise ContractViolationError(
            f"entry count {len(re)}/{len(im)} does not match {rows}x{cols}")
    a = np.asarray(re, dtype=float) + 1j * np.asarray(im, dtype=float)
    if not np.isfinite(a).all():
        raise ContractViolationError("matrix entries must be finite")
    return a.reshape(rows, cols)
