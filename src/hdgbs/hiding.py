"""Random-matrix ensembles behind the hiding property and their
singular-value statistics.

Four ensembles are compared: N x K blocks of Haar-random M x M unitaries,
Gaussian matrices with matched variance 1/M, and the symmetric products
V V^T of either. Both symmetric-product distributions are invariant under
W (.) W^T conjugation, so their singular-value spectra carry all the
distinguishable structure; closeness is measured as total-variation
distance between pooled, binned spectra.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractViolationError
from .matrices import _integer, _seed_sequence, as_rng, ginibre, haar_isometry

ENSEMBLE_KINDS = ("haar_sub", "gaussian", "coe_sub", "gaussian_sym")


@dataclass(frozen=True)
class EnsembleSpec:
    """One of the four ensembles at parameters (M, N, K), stored as ints.

    Sub-matrix kinds draw N x K blocks from U(M); Gaussian kinds fix the
    entry variance to 1/M. The symmetric kinds square to N x N products.
    """

    kind: str
    m: int
    n: int
    k: int

    def __post_init__(self):
        if self.kind not in ENSEMBLE_KINDS:
            raise ContractViolationError(
                f"unknown ensemble kind {self.kind!r}, expected one of {ENSEMBLE_KINDS}")
        for name in ("m", "n", "k"):
            object.__setattr__(self, name, _integer(getattr(self, name), name.upper()))
        if not 1 <= self.n <= self.k <= self.m:
            raise ContractViolationError(
                f"need 1 <= N <= K <= M, got N={self.n}, K={self.k}, M={self.m}")


def _haar_block(m: int, n: int, k: int, rng) -> np.ndarray:
    """Top-left n x k block of a Haar-random m x m unitary.

    U -> U^T preserves Haar measure on U(m), so U[:n, :k] has the law of
    W[:k, :]^T, where W is the first n columns of a Haar unitary: an m x n
    Haar isometry (Zyczkowski & Sommers, J. Phys. A 33, 2045 (2000)). Its
    QR costs O(m n^2), against O(m k^2) for the first k columns.
    """
    return haar_isometry(m, n, rng)[:k, :].T


def sample_ensemble(spec: EnsembleSpec, seed) -> np.ndarray:
    """One draw from the ensemble. Fixed seed and spec give a
    bit-identical matrix."""
    rng = as_rng(seed)
    if spec.kind == "haar_sub":
        return _haar_block(spec.m, spec.n, spec.k, rng)
    if spec.kind == "gaussian":
        return ginibre(spec.n, spec.k, 1.0 / spec.m, rng)
    if spec.kind == "coe_sub":
        v = _haar_block(spec.m, spec.n, spec.k, rng)
        return v @ v.T
    x = ginibre(spec.n, spec.k, 1.0 / spec.m, rng)
    return x @ x.T


def singular_spectrum(a: np.ndarray) -> np.ndarray:
    """Singular values in descending order, length min(rows, cols)."""
    return np.linalg.svd(np.asarray(a), compute_uv=False)


def pooled_singular_values(spec: EnsembleSpec, samples: int, seed) -> np.ndarray:
    """All singular values of ``samples`` independent draws, pooled into
    one flat array. Draws use per-draw child seeds so the pool is stable
    under any parallel evaluation order."""
    samples = _integer(samples, "samples", 0)
    if samples == 0:
        return np.empty(0)
    children = _seed_sequence(seed).spawn(samples)
    vals = [singular_spectrum(sample_ensemble(spec, np.random.default_rng(c)))
            for c in children]
    return np.concatenate(vals)


@dataclass(frozen=True, eq=False)
class SpectrumHistogram:
    """Binned, normalized singular-value masses: non-negative, summing to 1,
    or all zero for a histogram of no samples. The edges and masses are
    stored as read-only float copies of the values checked."""

    bin_edges: np.ndarray = field(repr=False)
    masses: np.ndarray = field(repr=False)
    sample_count: int

    def __post_init__(self):
        edges = np.array(self.bin_edges, dtype=float)
        masses = np.array(self.masses, dtype=float)
        count = _integer(self.sample_count, "sample count", 0)
        if edges.ndim != 1 or masses.ndim != 1 or edges.size != masses.size + 1:
            raise ContractViolationError("need len(edges) == len(masses) + 1")
        if np.any(np.diff(edges) <= 0):
            raise ContractViolationError("bin edges must be strictly increasing")
        if not np.all(masses >= 0.0):     # a NaN mass fails too
            raise ContractViolationError("masses must be non-negative")
        if count > 0 and abs(masses.sum() - 1.0) > 1e-12:
            raise ContractViolationError(
                f"masses sum to {masses.sum()}, expected 1")
        if count == 0 and masses.any():
            raise ContractViolationError("a histogram of no samples must have zero masses")
        for name, value in (("bin_edges", edges), ("masses", masses)):
            value.setflags(write=False)
            object.__setattr__(self, name, value)
        object.__setattr__(self, "sample_count", count)


def histogram_from_values(values: np.ndarray, edges: np.ndarray,
                          sample_count: int) -> SpectrumHistogram:
    counts, _ = np.histogram(values, bins=edges)
    total = counts.sum()
    masses = counts / total if total else np.zeros(len(edges) - 1)
    return SpectrumHistogram(edges, masses, sample_count)


def shared_edges(values_a: np.ndarray, values_b: np.ndarray, bins: int) -> np.ndarray:
    """Uniform bin edges on [0, max over both pools], treating the two
    ensembles symmetrically."""
    bins = _integer(bins, "bins", 1)
    top = max(float(values_a.max(initial=0.0)), float(values_b.max(initial=0.0)))
    if top <= 0.0:
        top = 1.0
    return np.linspace(0.0, np.nextafter(top, np.inf), bins + 1)


def spectra_tv_distance(a: SpectrumHistogram, b: SpectrumHistogram) -> float:
    """Total-variation distance (half the L1 difference) between two
    histograms on identical edges."""
    if a.bin_edges.shape != b.bin_edges.shape or not np.allclose(
            a.bin_edges, b.bin_edges, rtol=0.0, atol=1e-12):
        raise ContractViolationError("histograms use different bin edges")
    return 0.5 * float(np.abs(a.masses - b.masses).sum())


def spectra_histograms(spec_a: EnsembleSpec, spec_b: EnsembleSpec, samples: int,
                       bins: int, seed) -> tuple[SpectrumHistogram, SpectrumHistogram]:
    """Pooled spectra of both ensembles on shared edges."""
    ss = _seed_sequence(seed).spawn(2)
    vals_a = pooled_singular_values(spec_a, samples, ss[0])
    vals_b = pooled_singular_values(spec_b, samples, ss[1])
    edges = shared_edges(vals_a, vals_b, bins)
    return (histogram_from_values(vals_a, edges, samples),
            histogram_from_values(vals_b, edges, samples))


def ensemble_tv(spec_a: EnsembleSpec, spec_b: EnsembleSpec, samples: int,
                bins: int, seed) -> float:
    hist_a, hist_b = spectra_histograms(spec_a, spec_b, samples, bins, seed)
    return spectra_tv_distance(hist_a, hist_b)


def split_half_tv(spec: EnsembleSpec, samples: int, bins: int, seed) -> float:
    """Noise floor of the TV estimator: the distance between two halves of
    one ensemble's own sample pool (interleaved split, so with an odd count
    the first half holds one draw more). Needs at least 2 samples."""
    samples = _integer(samples, "samples", 2)
    draws = pooled_singular_values(spec, samples, seed).reshape(samples, -1)
    first, second = draws[0::2].ravel(), draws[1::2].ravel()
    edges = shared_edges(first, second, bins)
    return spectra_tv_distance(histogram_from_values(first, edges, (samples + 1) // 2),
                               histogram_from_values(second, edges, samples // 2))


def hiding_scan(pairs, samples: int, bins: int, seed) -> list[dict]:
    """TV distance for each (spec_a, spec_b) pair, as CSV-ready rows.

    Configurations outside the collision-free heuristic N^2 <= M are
    flagged with a warning, since the product ensembles are only expected
    to agree in that regime.
    """
    samples, bins = _integer(samples, "samples", 0), _integer(bins, "bins", 1)
    rows = []
    pairs = list(pairs)
    if samples == 0 or not pairs:
        return rows
    children = _seed_sequence(seed).spawn(len(pairs))
    for (spec_a, spec_b), child in zip(pairs, children):
        if spec_a.n ** 2 > spec_a.m or spec_b.n ** 2 > spec_b.m:
            warnings.warn(
                f"N^2 > M for (M={spec_a.m}, N={spec_a.n}): outside the "
                "collision-free regime, agreement is not expected",
                stacklevel=2)
        tv = ensemble_tv(spec_a, spec_b, samples, bins, child)
        rows.append({"M": spec_a.m, "N": spec_a.n, "K": spec_a.k,
                     "samples": samples, "bins": bins, "tv": tv})
    return rows
