"""Tests for ensemble sampling, singular spectra and TV distances."""
import math

import numpy as np
import pytest

from hdgbs.errors import ContractViolationError
from hdgbs.hiding import (EnsembleSpec, SpectrumHistogram, ensemble_tv,
                          hiding_scan, histogram_from_values,
                          pooled_singular_values, sample_ensemble,
                          shared_edges, singular_spectrum, spectra_histograms,
                          spectra_tv_distance, split_half_tv)
from hdgbs.matrices import haar_isometry, symmetry_defect, unitarity_defect


def test_spec_validation():
    with pytest.raises(ContractViolationError):
        EnsembleSpec("coe_sub", m=10, n=5, k=3)       # N > K
    with pytest.raises(ContractViolationError):
        EnsembleSpec("coe_sub", m=10, n=2, k=12)      # K > M
    with pytest.raises(ContractViolationError):
        EnsembleSpec("nonsense", m=10, n=2, k=5)
    with pytest.raises(ContractViolationError, match="M must be an integer, got 100.5"):
        EnsembleSpec("coe_sub", m=100.5, n=8, k=100)
    with pytest.raises(ContractViolationError, match="M must be an integer, got True"):
        EnsembleSpec("gaussian", True, True, True)      # not a 1 x 1 spec
    with pytest.raises(ContractViolationError, match="K must be an integer, got 2.0"):
        EnsembleSpec("gaussian", 4, 2, 2.0)


def test_coe_full_block_is_symmetric_unitary():
    spec = EnsembleSpec("coe_sub", m=12, n=12, k=12)
    c = sample_ensemble(spec, seed=3)
    assert symmetry_defect(c) < 1e-12
    assert unitarity_defect(c) < 1e-10        # U U^T is unitary for unitary U


def test_haar_sub_full_block_is_haar_unitary():
    spec = EnsembleSpec("haar_sub", m=9, n=9, k=9)
    u = sample_ensemble(spec, seed=4)
    assert unitarity_defect(u) < 1e-10


def test_gaussian_sym_is_symmetric():
    spec = EnsembleSpec("gaussian_sym", m=40, n=6, k=20)
    x = sample_ensemble(spec, seed=5)
    assert x.shape == (6, 6)
    assert symmetry_defect(x) < 1e-12


def test_sample_shapes():
    assert sample_ensemble(EnsembleSpec("haar_sub", 20, 3, 7), 0).shape == (3, 7)
    assert sample_ensemble(EnsembleSpec("gaussian", 20, 3, 7), 0).shape == (3, 7)
    assert sample_ensemble(EnsembleSpec("coe_sub", 20, 3, 7), 0).shape == (3, 3)


def test_sampling_deterministic():
    spec = EnsembleSpec("coe_sub", m=15, n=4, k=8)
    assert np.array_equal(sample_ensemble(spec, 11), sample_ensemble(spec, 11))
    assert np.array_equal(pooled_singular_values(spec, 5, 12),
                          pooled_singular_values(spec, 5, 12))


def test_singular_spectrum_of_unitary():
    from hdgbs.matrices import haar_unitary
    sv = singular_spectrum(haar_unitary(8, seed=6))
    assert np.abs(sv - 1.0).max() < 1e-10


def test_singular_spectrum_of_zero():
    assert np.all(singular_spectrum(np.zeros((3, 5))) == 0.0)
    assert singular_spectrum(np.zeros((3, 5))).shape == (3,)


def test_singular_values_square_to_gram_eigenvalues():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    sv = singular_spectrum(a)
    ev = np.sort(np.linalg.eigvalsh(a.conj().T @ a))[::-1]
    assert np.abs(sv ** 2 - ev).max() < 1e-10


def test_spectrum_invariant_under_symmetric_conjugation():
    # both product ensembles are invariant under W (.) W^T, so the spectrum
    # of W X X^T W^T must equal that of X X^T
    from hdgbs.matrices import haar_unitary
    x = sample_ensemble(EnsembleSpec("gaussian", 50, 6, 20), seed=8)
    prod = x @ x.T
    w = haar_unitary(6, seed=9)
    sv_ref = singular_spectrum(prod)
    sv_conj = singular_spectrum(w @ prod @ w.T)
    assert np.abs(sv_ref - sv_conj).max() < 1e-10


def test_tv_distance_basics():
    edges = np.array([0.0, 1.0, 2.0])
    a = SpectrumHistogram(edges, np.array([1.0, 0.0]), 10)
    b = SpectrumHistogram(edges, np.array([0.0, 1.0]), 10)
    assert spectra_tv_distance(a, a) == 0.0
    assert spectra_tv_distance(a, b) == 1.0
    assert spectra_tv_distance(a, b) == spectra_tv_distance(b, a)


def test_tv_distance_rejects_mismatched_edges():
    a = SpectrumHistogram(np.array([0.0, 1.0]), np.array([1.0]), 5)
    b = SpectrumHistogram(np.array([0.0, 2.0]), np.array([1.0]), 5)
    with pytest.raises(ContractViolationError):
        spectra_tv_distance(a, b)


def test_histogram_type_validation():
    with pytest.raises(ContractViolationError):
        SpectrumHistogram(np.array([0.0, 1.0, 1.0]), np.array([0.5, 0.5]), 3)
    with pytest.raises(ContractViolationError):
        SpectrumHistogram(np.array([0.0, 1.0, 2.0]), np.array([0.5, 0.6]), 3)


@pytest.mark.parametrize("masses, count, message", [
    ([1.5, -0.5], 3, "masses must be non-negative"),
    ([2.0, -1.0], 0, "masses must be non-negative"),
    ([0.5, 0.5], 0, "no samples must have zero masses"),
    ([0.5, 0.5], -1, "sample count must be >= 0"),
    ([[0.5, 0.5]], 2, "need len"),
], ids=["negative", "negative-unsampled", "unsampled", "negative-count", "2-d-masses"])
def test_histogram_rejects_negative_or_unsampled_masses(masses, count, message):
    with pytest.raises(ContractViolationError, match=message):
        SpectrumHistogram(np.array([0.0, 1.0, 2.0]), np.array(masses), count)


@pytest.mark.parametrize("edges", [[0.0, math.nan, 1.0], [math.nan, 0.5, 1.0],
                                   [0.0, 0.5, math.inf]], ids=["NaN", "leading-NaN", "inf"])
def test_histogram_rejects_edges_that_are_not_finite(edges):
    # a NaN edge passed the increasing-edges check, and the TV distance
    # then refused the histogram against itself as "different bin edges"
    with pytest.raises(ContractViolationError, match="finite and strictly increasing"):
        SpectrumHistogram(edges, [0.5, 0.5], 3)


def test_histogram_keeps_read_only_arrays():
    # lists used to be stored as given, and the TV distance then raised
    # AttributeError on the list's missing shape
    h = SpectrumHistogram([0, 1, 2], [0.5, 0.5], 2)
    assert spectra_tv_distance(h, h) == 0.0
    assert h.bin_edges.dtype == h.masses.dtype == np.float64
    with pytest.raises(ValueError, match="read-only"):
        h.masses[0] = 1.0


def test_histogram_masses_normalized():
    vals = np.array([0.1, 0.2, 0.7, 1.5])
    h = histogram_from_values(vals, np.array([0.0, 1.0, 2.0]), 2)
    assert h.masses.sum() == pytest.approx(1.0)
    assert h.masses[0] == pytest.approx(0.75)


def test_shared_edges_cover_both_pools():
    e = shared_edges(np.array([0.5, 0.9]), np.array([1.4]), bins=7)
    assert len(e) == 8
    assert e[0] == 0.0 and e[-1] >= 1.4


def test_close_ensembles_have_small_tv():
    coe = EnsembleSpec("coe_sub", m=60, n=4, k=60)
    gsym = EnsembleSpec("gaussian_sym", m=60, n=4, k=60)
    tv = ensemble_tv(coe, gsym, samples=400, bins=30, seed=13)
    assert 0.0 <= tv <= 0.25


def test_split_half_tv_is_small_noise_floor():
    spec = EnsembleSpec("gaussian_sym", m=80, n=4, k=40)
    floor = split_half_tv(spec, samples=600, bins=30, seed=14)
    assert 0.0 < floor < 0.25


def test_split_half_tv_labels_each_half_by_its_own_draws():
    # 3 draws split 2 / 1: each half's histogram holds its own draws, and
    # the floor is the distance between the two, found here by hand
    spec = EnsembleSpec("gaussian", m=9, n=2, k=3)
    pool = pooled_singular_values(spec, 3, seed=4).reshape(3, -1)
    edges = shared_edges(pool[0::2].ravel(), pool[1::2].ravel(), 5)
    first = np.histogram(pool[0::2], bins=edges)[0] / 4
    second = np.histogram(pool[1::2], bins=edges)[0] / 2
    want = 0.5 * float(np.abs(first - second).sum())
    assert split_half_tv(spec, samples=3, bins=5, seed=4) == pytest.approx(want, abs=1e-15)


@pytest.mark.parametrize("samples", [1, 0, -2])
def test_split_half_tv_needs_two_samples(samples):
    spec = EnsembleSpec("gaussian", m=9, n=2, k=3)
    with pytest.raises(ContractViolationError, match=f"samples must be >= 2, got {samples}"):
        split_half_tv(spec, samples=samples, bins=5, seed=4)


def test_hiding_scan_empty_on_zero_samples():
    pairs = [(EnsembleSpec("coe_sub", 30, 3, 30),
              EnsembleSpec("gaussian_sym", 30, 3, 30))]
    assert hiding_scan(pairs, samples=0, bins=10, seed=0) == []


def test_hiding_scan_rows_and_determinism():
    pairs = [(EnsembleSpec("coe_sub", 30, 3, 30),
              EnsembleSpec("gaussian_sym", 30, 3, 30)),
             (EnsembleSpec("coe_sub", 50, 3, 25),
              EnsembleSpec("gaussian_sym", 50, 3, 25))]
    rows = hiding_scan(pairs, samples=60, bins=12, seed=2)
    again = hiding_scan(pairs, samples=60, bins=12, seed=2)
    assert rows == again
    assert [r["M"] for r in rows] == [30, 50]
    for r in rows:
        assert set(r) == {"M", "N", "K", "samples", "bins", "tv"}
        assert 0.0 <= r["tv"] <= 1.0


def test_hiding_scan_warns_outside_collision_free_regime():
    pairs = [(EnsembleSpec("coe_sub", 9, 4, 9),
              EnsembleSpec("gaussian_sym", 9, 4, 9))]     # N^2 = 16 > 9 = M
    with pytest.warns(UserWarning):
        hiding_scan(pairs, samples=5, bins=5, seed=3)


def test_spectra_histograms_share_edges():
    coe = EnsembleSpec("coe_sub", m=40, n=3, k=40)
    gsym = EnsembleSpec("gaussian_sym", m=40, n=3, k=40)
    ha, hb = spectra_histograms(coe, gsym, samples=50, bins=16, seed=4)
    assert np.array_equal(ha.bin_edges, hb.bin_edges)
    assert ha.masses.sum() == pytest.approx(1.0)


def _haar_block_mk_qr(m, n, k, rng):
    """Reference sampler: rows 0..n-1 of the first k columns of a Haar
    unitary, from an O(m k^2) QR of an m x k Ginibre matrix."""
    return haar_isometry(m, k, rng)[:n, :]


def _reference_pool(kind, m, n, k, samples, seed):
    children = np.random.SeedSequence(seed).spawn(samples)
    vals = []
    for child in children:
        v = _haar_block_mk_qr(m, n, k, np.random.default_rng(child))
        vals.append(singular_spectrum(v if kind == "haar_sub" else v @ v.T))
    return np.concatenate(vals)


def _pool_tv(a, b, bins):
    edges = shared_edges(a, b, bins)
    return spectra_tv_distance(histogram_from_values(a, edges, 1),
                               histogram_from_values(b, edges, 1))


def _split_half_floor(pool, n, bins):
    draws = pool.reshape(-1, n)
    return _pool_tv(draws[0::2].ravel(), draws[1::2].ravel(), bins)


@pytest.mark.parametrize("kind, m, n, k, samples", [
    ("haar_sub", 40, 4, 30, 2_000),
    ("coe_sub", 40, 4, 30, 2_000),
    ("coe_sub", 200, 10, 200, 300),   # at K = M every haar_sub value is 1
])
def test_sub_block_sampler_matches_mk_qr_reference(kind, m, n, k, samples):
    bins = 60
    new = pooled_singular_values(EnsembleSpec(kind, m, n, k), samples, seed=61)
    ref = _reference_pool(kind, m, n, k, samples, seed=62)
    tv = _pool_tv(new, ref, bins)
    floor = 0.5 * (_split_half_floor(new, n, bins) + _split_half_floor(ref, n, bins))
    assert tv < 3.0 * floor, (tv, floor)


@pytest.mark.parametrize("m, n, k", [(40, 4, 30), (200, 10, 200), (30, 3, 3)])
def test_haar_block_norms(m, n, k):
    # a block of a unitary has operator norm <= 1, and for Haar U the
    # block's squared Frobenius norm has mean N K / M and variance
    # N K (M - N) (M - K) / (M^2 (M^2 - 1))
    samples = 2_000
    sv = pooled_singular_values(EnsembleSpec("haar_sub", m, n, k), samples, seed=63)
    assert sv.min() >= 0.0 and sv.max() <= 1.0 + 1e-12
    coe = pooled_singular_values(EnsembleSpec("coe_sub", m, n, k), 200, seed=64)
    assert coe.min() >= 0.0 and coe.max() <= 1.0 + 1e-12
    frob = (sv.reshape(samples, n) ** 2).sum(axis=1)
    var = n * k * (m - n) * (m - k) / (m ** 2 * (m ** 2 - 1))
    sigma = np.sqrt(var / samples)
    assert abs(frob.mean() - n * k / m) <= 5.0 * sigma + 1e-12
