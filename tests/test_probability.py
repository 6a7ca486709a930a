"""Tests for outcome probabilities and photon-number distributions.

The closed-form lossy distribution is validated against the independent
convolution route (per-mode squeezed vacuum, binomially thinned, then
convolved), and outcome probabilities are cross-checked between their two
algebraic encodings.
"""
import math

import numpy as np
import pytest

from hdgbs.circuit import adjacency, adjacency_general, build_instance
from hdgbs.errors import ContractViolationError, ResourceLimitError
from hdgbs.logmath import NEG_INF
from hdgbs.matrices import haar_unitary
from hdgbs.probability import (PhotonNumberDist, binomial_thinning_matrix,
                               collision_free_probability, enumerate_patterns,
                               exact_sample, lossy_total_dist_closed,
                               mean_total_photons, most_probable_even,
                               outcome_probability, pattern_count,
                               photon_moments, squeezed_vacuum_dist,
                               total_dist_convolution)


# ---------------------------------------------------------------- moments

def test_mean_total_photons_zero_squeezing():
    assert mean_total_photons(50, 0.0) == 0.0


def test_mean_total_photons_values():
    assert mean_total_photons(216, 0.8) == pytest.approx(170.36616288904762)
    assert mean_total_photons(100, 0.8) == pytest.approx(78.87322355974426)


def test_photon_moments_reference_point():
    mean, var = photon_moments(0.8, eta=0.5, modes=216)
    assert mean == pytest.approx(85.18308144452381, abs=1e-9)
    assert math.sqrt(var) == pytest.approx(13.96285301897875, abs=1e-9)


def test_photon_moments_lossless_variance():
    s2 = math.sinh(0.8) ** 2
    _, var = photon_moments(0.8, eta=1.0, modes=50)
    assert var == pytest.approx(50 * s2 * (2 + 2 * s2), rel=1e-12)


def test_photon_moments_match_mean_total_photons():
    mean, _ = photon_moments(0.8, eta=1.0, modes=216)
    assert mean == pytest.approx(mean_total_photons(216, 0.8), rel=1e-12)


def test_photon_moments_nonuniform():
    rs = [0.2, 0.5, 1.1]
    mean, var = photon_moments(rs, eta=0.7)
    exp_mean = 0.7 * sum(math.sinh(r) ** 2 for r in rs)
    exp_var = sum(0.7 * math.sinh(r) ** 2
                  * (1 + 0.7 * (1 + 2 * math.sinh(r) ** 2)) for r in rs)
    assert mean == pytest.approx(exp_mean, rel=1e-12)
    assert var == pytest.approx(exp_var, rel=1e-12)


def test_photon_moments_match_convolution():
    dist = total_dist_convolution([0.8] * 30, eta=0.6, n_max=200)
    mean, var = photon_moments(0.8, eta=0.6, modes=30)
    assert dist.mean() == pytest.approx(mean, rel=1e-6)
    assert dist.variance() == pytest.approx(var, rel=1e-6)


# ------------------------------------------------- squeezed vacuum masses

def test_squeezed_vacuum_p0_is_sech():
    dist = squeezed_vacuum_dist(0.8, 12)
    assert dist.probs[0] == pytest.approx(1.0 / math.cosh(0.8), rel=1e-14)


def test_squeezed_vacuum_odd_mass_zero():
    dist = squeezed_vacuum_dist(0.8, 11)
    assert np.all(dist.log_probs[1::2] == NEG_INF)


def test_squeezed_vacuum_normalizes():
    dist = squeezed_vacuum_dist(0.8, 400)
    assert dist.probs.sum() == pytest.approx(1.0, abs=1e-12)


def test_squeezed_vacuum_zero_squeezing():
    dist = squeezed_vacuum_dist(0.0, 5)
    assert dist.probs[0] == 1.0
    assert np.all(dist.probs[1:] == 0.0)


# ------------------------------------------------------ lossy total count

def test_closed_form_lossless_limit_matches_convolution():
    closed = lossy_total_dist_closed(10, 0.8, 1.0, 60)
    conv = total_dist_convolution([0.8] * 10, 1.0, 60)
    assert np.abs(closed.probs - conv.probs).max() < 1e-12
    assert np.all(closed.log_probs[1::2] == NEG_INF)


@pytest.mark.parametrize("modes", [1, 2, 10])
@pytest.mark.parametrize("r", [0.2, 0.8])
@pytest.mark.parametrize("eta", [0.0, 0.5, 1.0])
def test_closed_form_matches_convolution(modes, r, eta):
    n_max = 80
    closed = lossy_total_dist_closed(modes, r, eta, n_max)
    conv = total_dist_convolution([r] * modes, eta, n_max)
    assert np.abs(closed.probs - conv.probs).max() <= 1e-10


def test_closed_form_highcount_reference_point():
    dist = lossy_total_dist_closed(216, 0.8, 0.5, 200)
    assert dist.probs[168] == pytest.approx(7.28e-8, rel=0.01)


def test_closed_form_rejects_bad_eta():
    with pytest.raises(ContractViolationError):
        lossy_total_dist_closed(4, 0.8, 1.2, 10)


def test_convolution_single_mode_lossless():
    conv = total_dist_convolution([0.8], 1.0, 40)
    ref = squeezed_vacuum_dist(0.8, 40)
    assert np.abs(conv.probs - ref.probs).max() < 1e-15


def test_convolution_eta_zero_point_mass():
    conv = total_dist_convolution([0.8] * 5, 0.0, 20)
    assert conv.probs[0] == pytest.approx(1.0, abs=1e-14)
    assert conv.probs[1:].max() == 0.0


def test_convolution_reference_moments():
    dist = total_dist_convolution([0.8] * 216, 0.5, 400)
    assert dist.mean() == pytest.approx(85.2, abs=0.05)
    assert dist.std() == pytest.approx(13.96, abs=0.01)
    assert dist.truncation_deficit < 1e-12


def test_loss_shrinks_mean():
    lo = total_dist_convolution([0.8] * 20, 0.3, 150).mean()
    hi = total_dist_convolution([0.8] * 20, 0.7, 150).mean()
    assert lo < hi


def test_odd_mass_proportional_to_loss():
    # odd-count probabilities carry a (1 - eta) prefactor, so near eta = 1
    # they vanish linearly
    n = 7
    p1 = lossy_total_dist_closed(10, 0.8, 1.0 - 1e-4, 20).probs[n]
    p2 = lossy_total_dist_closed(10, 0.8, 1.0 - 2e-4, 20).probs[n]
    assert p2 / p1 == pytest.approx(2.0, rel=1e-2)
    assert lossy_total_dist_closed(10, 0.8, 1.0, 20).probs[n] == 0.0


def test_thinning_matrix_columns_sum_to_one():
    mat = binomial_thinning_matrix(0.37, 30)
    assert np.abs(mat.sum(axis=0) - 1.0).max() < 1e-12


def _thinning_loop(eta, n_max):
    # lgamma three times per entry: the oracle for the log-factorial list
    mat = np.zeros((n_max + 1, n_max + 1))
    log_eta, log_keep = math.log(eta), math.log1p(-eta)
    for n in range(n_max + 1):
        for k in range(n + 1):
            mat[k, n] = math.exp(math.lgamma(n + 1) - math.lgamma(k + 1)
                                 - math.lgamma(n - k + 1) + k * log_eta
                                 + (n - k) * log_keep)
    return mat


@pytest.mark.parametrize("eta, n_max", [(0.5, 400), (0.3, 50), (0.9, 400), (0.01, 120),
                                        (0.37, 0)])
def test_thinning_matrix_matches_the_lgamma_loop_bit_for_bit(eta, n_max):
    got = binomial_thinning_matrix(eta, n_max)
    assert got.tobytes() == _thinning_loop(eta, n_max).tobytes()


def test_dist_type_rejects_overfull_mass():
    with pytest.raises(ContractViolationError):
        PhotonNumberDist(np.array([0.0, 0.0]), 1, 1, 0.5, 1.0)  # two units of mass


def test_dist_type_rejects_odd_mass_when_lossless():
    lp = np.log(np.array([0.6, 0.4]))
    with pytest.raises(ContractViolationError):
        PhotonNumberDist(lp, 1, 1, 0.5, 1.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["NaN", "+inf"])
def test_dist_type_rejects_nan_or_positive_infinite_log_probs(bad):
    with pytest.raises(ContractViolationError, match="NaN or \\+inf"):
        PhotonNumberDist(np.array([bad, 0.0]), 1)
    with pytest.raises(ContractViolationError, match="NaN or \\+inf"):
        PhotonNumberDist(np.array([NEG_INF, bad]), 1)


def test_dist_type_metadata_is_optional():
    # a law read back from a file has no known source: no lossless check
    dist = PhotonNumberDist(np.log(np.array([0.6, 0.4])), 1)
    assert (dist.modes, dist.r, dist.eta) == (None, None, None)


# ------------------------------------------------------- most probable n

def test_most_probable_even_reference():
    assert most_probable_even(216, 0.8) == 168


def test_most_probable_even_small_r():
    assert most_probable_even(216, 1e-9) == 0


@pytest.mark.parametrize("modes", [10, 50])
def test_most_probable_even_is_lossless_argmax(modes):
    dist = total_dist_convolution([0.8] * modes, 1.0, 300)
    assert dist.most_probable() == most_probable_even(modes, 0.8)


# -------------------------------------------------- outcome probabilities

def test_vacuum_outcome_probability():
    inst = build_instance(0.8, 2, 2, 1, seed=3)
    a = adjacency(inst)
    p = outcome_probability(a, [0.8] * 4, [0, 0, 0, 0])
    assert p == pytest.approx(math.cosh(0.8) ** -4, rel=1e-12)


def test_single_mode_pair_probability():
    # one squeezer measured at n=2: tanh^2(r) / (2 cosh r)
    r = 0.8
    a = adjacency_general(np.eye(1, dtype=complex), [r])
    p = outcome_probability(a, [r], [2])
    assert p == pytest.approx(0.164847207516907, rel=1e-12)
    ref = squeezed_vacuum_dist(r, 4).probs[2]
    assert p == pytest.approx(ref, rel=1e-12)


def test_outcome_probability_resource_guard():
    a = adjacency_general(np.eye(2, dtype=complex), [0.5, 0.5])
    with pytest.raises(ResourceLimitError):
        outcome_probability(a, [0.5, 0.5], [30, 30])


@pytest.mark.parametrize("r_vec", [[0.4] * 3, 0.4, [[0.4] * 9]],
                         ids=["three-entries", "scalar", "row"])
def test_outcome_probability_rejects_r_vec_of_wrong_shape(r_vec):
    # one squeezing parameter per mode: anything else used to be read
    # silently (a 3-entry r_vec for 9 modes gave 5.74e-4 for 3.60e-4)
    inst = build_instance(0.4, 3, 2, 1, seed=11)
    a = adjacency(inst)
    assert outcome_probability(a, [0.4] * 9, [1, 1, 0, 0, 0, 0, 0, 0, 0]) > 0
    with pytest.raises(ContractViolationError, match="r_vec"):
        outcome_probability(a, r_vec, [1, 1, 0, 0, 0, 0, 0, 0, 0])


def test_stacked_outcome_probability_equals_per_pattern_bit_for_bit():
    inst = build_instance(0.4, 3, 2, 1, seed=11)
    a = adjacency(inst)
    r_vec = np.full(9, 0.4)
    patterns = list(enumerate_patterns(9, 4))
    per = [outcome_probability(a, r_vec, p) for p in patterns]
    assert all(type(p) is float for p in per)
    got = outcome_probability(a, r_vec, patterns)
    assert got.shape == (len(patterns),)
    assert got.tobytes() == np.array(per).tobytes()
    grid = outcome_probability(a, r_vec, np.array(patterns[:10]).reshape(2, 5, 9))
    assert grid.tobytes() == np.array(per[:10]).tobytes()


def test_collision_free_vacuum():
    u = haar_unitary(6, seed=9)
    p = collision_free_probability(u, k=4, r=0.7, pattern=[0] * 6)
    assert p == pytest.approx(math.cosh(0.7) ** -4, rel=1e-12)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_two_route_equality(seed):
    # first-K-squeezed encoding of the general formula must agree with the
    # projected-product form to 1e-12 relative
    m, k, r = 8, 4, 0.6
    u = haar_unitary(m, seed=100 + seed)
    rng = np.random.default_rng(seed)
    pattern = np.zeros(m, dtype=int)
    pattern[rng.choice(m, size=2, replace=False)] = 1
    r_vec = np.array([r] * k + [0.0] * (m - k))
    p_general = outcome_probability(adjacency_general(u, r_vec), r_vec, pattern)
    p_cf = collision_free_probability(u, k, r, pattern)
    assert p_cf == pytest.approx(p_general, rel=1e-12)


def test_two_route_equality_full_k():
    m = 6
    u = haar_unitary(m, seed=55)
    pattern = [1, 1, 0, 0, 0, 0]
    r_vec = [0.5] * m
    p_general = outcome_probability(adjacency_general(u, r_vec), r_vec, pattern)
    p_cf = collision_free_probability(u, m, 0.5, pattern)
    assert p_cf == pytest.approx(p_general, rel=1e-12)


def test_collision_free_rejects_collisions():
    u = haar_unitary(4, seed=2)
    with pytest.raises(ContractViolationError):
        collision_free_probability(u, 2, 0.5, [2, 0, 0, 0])


def test_probability_normalization_small_instance():
    # lossless tail beyond 8 photons for two r=0.3 squeezers is 4.4e-6
    inst = build_instance(0.3, 2, 1, 1, seed=21)
    a = adjacency(inst)
    r_vec = np.full(2, 0.3)
    total = sum(outcome_probability(a, r_vec, pat)
                for pat in enumerate_patterns(2, 8))
    assert 1.0 - 1e-5 <= total <= 1.0 + 1e-12


# ------------------------------------------------------------- sampling

def test_exact_sample_zero_squeezing_always_vacuum():
    inst = build_instance(0.0, 2, 1, 1, seed=31)
    samples, truncated = exact_sample(inst, n_max=4, count=50, seed=5)
    assert all(s == (0, 0) for s in samples)
    assert truncated == pytest.approx(0.0, abs=1e-12)


def test_exact_sample_frequencies_match_probabilities():
    inst = build_instance(0.5, 2, 1, 1, seed=32)
    a = adjacency(inst)
    r_vec = np.full(2, 0.5)
    n_draws = 20000
    samples, _ = exact_sample(inst, n_max=6, count=n_draws, seed=6)
    counts: dict = {}
    for s in samples:
        counts[s] = counts.get(s, 0) + 1
    for pat in enumerate_patterns(2, 6):
        p = outcome_probability(a, r_vec, pat)
        if n_draws * p < 10:
            continue
        freq = counts.get(pat, 0) / n_draws
        sigma = math.sqrt(p * (1 - p) / n_draws)
        assert abs(freq - p) <= 4 * sigma, pat


def test_exact_sample_truncated_mass_bound():
    # the mass outside {N <= 8} must equal the lossless total-count tail,
    # which the closed form puts at 2.454e-5 for four r=0.3 squeezers
    inst = build_instance(0.3, 2, 2, 1, seed=33)
    _, truncated = exact_sample(inst, n_max=8, count=1, seed=7)
    tail = 1.0 - lossy_total_dist_closed(4, 0.3, 1.0, 8).probs.sum()
    assert truncated == pytest.approx(tail, abs=1e-10)
    assert truncated <= 1e-4


def test_exact_sample_matches_per_pattern_reference():
    # exact_sample evaluates all patterns in one stacked call; its draws and
    # truncated mass must be those of the per-pattern computation
    inst = build_instance(0.4, 3, 2, 1, seed=12)
    a = adjacency(inst)
    r_vec = np.full(9, 0.4)
    patterns = list(enumerate_patterns(9, 4))
    probs = np.array([outcome_probability(a, r_vec, p) for p in patterns])
    mass = float(probs.sum())
    draws = np.random.default_rng(13).choice(len(patterns), size=200, p=probs / mass)
    samples, truncated = exact_sample(inst, n_max=4, count=200, seed=13)
    assert samples == [patterns[i] for i in draws]
    assert truncated == max(0.0, 1.0 - mass)


def test_exact_sample_budget_guard():
    inst = build_instance(0.3, 3, 2, 1, seed=34)     # 9 modes
    assert pattern_count(9, 40) > 10 ** 7
    with pytest.raises(ResourceLimitError):
        exact_sample(inst, n_max=40, count=1, seed=8)


def test_pattern_enumeration_counts():
    pats = list(enumerate_patterns(3, 2))
    assert len(pats) == pattern_count(3, 2) == 10
    assert len(set(pats)) == len(pats)
    assert all(sum(p) <= 2 for p in pats)


# ----------------------------------------------- squeezing and truncation

def test_outcome_probability_rejects_fractional_pattern():
    # [0, 1.9, 1.2, 0] used to give the probability of [0, 1, 1, 0]
    inst = build_instance(0.3, 2, 2, 1, seed=1)
    a, r_vec = adjacency(inst), [0.3] * 4
    assert outcome_probability(a, r_vec, [0, 1, 1, 0]) > 0
    with pytest.raises(ContractViolationError, match="non-negative integers"):
        outcome_probability(a, r_vec, [0, 1.9, 1.2, 0])
    with pytest.raises(ContractViolationError, match="non-negative integers"):
        collision_free_probability(haar_unitary(4, seed=2), 2, 0.3, [0, 0.5, 1, 0])


BAD_R = [float("nan"), float("inf"), -0.3]


@pytest.mark.parametrize("r", BAD_R, ids=["nan", "inf", "negative"])
@pytest.mark.parametrize("law", [
    lambda r: outcome_probability(np.zeros((2, 2)), [0.5, r], [1, 1]),
    lambda r: collision_free_probability(haar_unitary(2, seed=1), 1, r, [1, 1]),
    lambda r: photon_moments(r, eta=0.5, modes=4),
    lambda r: photon_moments([0.5, r], eta=0.5),
    lambda r: squeezed_vacuum_dist(r, 10),
    lambda r: lossy_total_dist_closed(4, r, 0.5, 10),
    lambda r: total_dist_convolution([0.5, r], 0.5, 10),
    lambda r: mean_total_photons(4, r),
    lambda r: most_probable_even(4, r),
], ids=["outcome_probability", "collision_free", "moments-scalar", "moments-vector",
        "squeezed_vacuum", "closed", "convolution", "mean_total", "most_probable"])
def test_squeezing_must_be_finite_and_non_negative(law, r):
    with pytest.raises(ContractViolationError, match="finite and >= 0"):
        law(r)


@pytest.mark.parametrize("n_max", [-1, -2])
@pytest.mark.parametrize("law", [
    lambda n_max: squeezed_vacuum_dist(0.5, n_max),
    lambda n_max: lossy_total_dist_closed(4, 0.5, 0.5, n_max),
    lambda n_max: total_dist_convolution([0.5] * 4, 0.5, n_max),
    lambda n_max: binomial_thinning_matrix(0.5, n_max),
    lambda n_max: PhotonNumberDist(np.zeros(0), n_max),
    lambda n_max: exact_sample(build_instance(0.3, 2, 1, 1, seed=0), n_max, 1, seed=0),
], ids=["squeezed_vacuum", "closed", "convolution", "thinning", "dist", "exact_sample"])
def test_truncation_must_be_non_negative(law, n_max):
    with pytest.raises(ContractViolationError, match="n_max must be >= 0"):
        law(n_max)
