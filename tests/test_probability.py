"""Tests for outcome probabilities and photon-number distributions.

The closed-form lossy distribution is validated against the independent
convolution route (per-mode squeezed vacuum, binomially thinned, then
convolved), and outcome probabilities of collision-free patterns are
checked against the paper's first-k-squeezed form, evaluated here by
Hafnian enumeration as an independent oracle.
"""
import itertools
import math

import numpy as np
import pytest

from hdgbs.circuit import adjacency, adjacency_general, build_instance
from hdgbs.errors import ContractViolationError, ResourceLimitError
from hdgbs.hafnian import hafnian_enum
from hdgbs.logmath import NEG_INF
from hdgbs.matrices import haar_unitary
from hdgbs.probability import (PhotonNumberDist, binomial_thinning_matrix,
                               enumerate_patterns, exact_sample, lossy_total_dist_closed,
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
        PhotonNumberDist(np.array([0.0, 0.0]), eta=1.0)  # two units of mass


def test_dist_type_rejects_odd_mass_when_lossless():
    lp = np.log(np.array([0.6, 0.4]))
    with pytest.raises(ContractViolationError):
        PhotonNumberDist(lp, eta=1.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["NaN", "+inf"])
def test_dist_type_rejects_nan_or_positive_infinite_log_probs(bad):
    with pytest.raises(ContractViolationError, match="NaN or \\+inf"):
        PhotonNumberDist(np.array([bad, 0.0]))
    with pytest.raises(ContractViolationError, match="NaN or \\+inf"):
        PhotonNumberDist(np.array([NEG_INF, bad]))


def test_dist_type_metadata_is_optional():
    # a law read back from a file has no known source: no lossless check
    dist = PhotonNumberDist(np.log(np.array([0.6, 0.4])))
    assert dist.eta is None
    assert dist.n_max == 1


@pytest.mark.parametrize("log_probs", [np.zeros(0), np.zeros((2, 2)), np.float64(0.0)],
                         ids=["empty", "2-D", "scalar"])
def test_dist_type_rejects_empty_or_non_1d_log_probs(log_probs):
    # n_max is len(log_probs) - 1, so an empty law has no n_max at all
    with pytest.raises(ContractViolationError, match="non-empty 1-D"):
        PhotonNumberDist(log_probs)


def test_dist_type_keeps_a_read_only_copy_of_its_law():
    # the law used to be the caller's object, so a write after the check
    # could give a lossless law odd-count mass and a total mass near 2
    dist = squeezed_vacuum_dist(0.5, 4)
    with pytest.raises(ValueError, match="read-only"):
        dist.log_probs[1] = 0.0
    given = [math.log(0.6), math.log(0.4)]
    dist = PhotonNumberDist(given)
    given[1] = 0.0
    assert dist.log_probs.dtype == np.float64
    assert dist.log_probs.tolist() == [math.log(0.6), math.log(0.4)]


def test_dist_type_eta_is_keyword_only_and_checked():
    lp = np.log(np.array([0.6, 0.4]))
    with pytest.raises(TypeError):
        PhotonNumberDist(lp, 1)         # the old positional n_max is not an eta
    with pytest.raises(ContractViolationError,
                       match=r"transmission eta must be a real number in \[0, 1\]"):
        PhotonNumberDist(lp, eta=5.0)
    assert PhotonNumberDist(lp, eta=0.5).n_max == 1


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


def _collision_free_oracle(u, k, r, pattern):
    """The paper's collision-free probability with the first k modes
    squeezed at r, tanh^N(r) / cosh^k(r) |Haf(V V^T)|^2, where V holds the
    pattern's rows of the first k columns of u; the Hafnian is enumerated."""
    rows = np.flatnonzero(pattern)
    v = u[rows, :k]
    return math.tanh(r) ** len(rows) / math.cosh(r) ** k * abs(hafnian_enum(v @ v.T)) ** 2


def _first_k_probability(u, k, r, pattern):
    r_vec = np.array([r] * k + [0.0] * (u.shape[0] - k))
    return outcome_probability(adjacency_general(u, r_vec), r_vec, pattern)


def test_collision_free_vacuum():
    u = haar_unitary(6, seed=9)
    p = _first_k_probability(u, 4, 0.7, [0] * 6)
    assert p == pytest.approx(math.cosh(0.7) ** -4, rel=1e-12)
    assert _collision_free_oracle(u, 4, 0.7, [0] * 6) == pytest.approx(p, rel=1e-12)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_two_route_equality(seed):
    # the general formula with the first k modes squeezed must agree with
    # the projected-product form to 1e-12 relative
    m, k, r = 8, 4, 0.6
    u = haar_unitary(m, seed=100 + seed)
    rng = np.random.default_rng(seed)
    pattern = np.zeros(m, dtype=int)
    pattern[rng.choice(m, size=2, replace=False)] = 1
    p_general = _first_k_probability(u, k, r, pattern)
    assert _collision_free_oracle(u, k, r, pattern) == pytest.approx(p_general, rel=1e-12)


def test_two_route_equality_full_k():
    m = 6
    u = haar_unitary(m, seed=55)
    pattern = [1, 1, 0, 0, 0, 0]
    p_general = _first_k_probability(u, m, 0.5, pattern)
    assert _collision_free_oracle(u, m, 0.5, pattern) == pytest.approx(p_general, rel=1e-12)


@pytest.mark.parametrize("k", [1, 5, 12])
@pytest.mark.parametrize("total", range(2, 13))
def test_collision_free_oracle_matches_outcome_probability(total, k):
    m, r = 12, 0.6
    u = haar_unitary(m, seed=400 + total)
    pattern = np.zeros(m, dtype=int)
    pattern[np.random.default_rng(total).choice(m, size=total, replace=False)] = 1
    want = _collision_free_oracle(u, k, r, pattern)
    assert (want == 0.0) == (total % 2 == 1)      # odd totals carry no mass
    assert _first_k_probability(u, k, r, pattern) == pytest.approx(want, rel=1e-12)


def test_probability_normalization_small_instance():
    # lossless tail beyond 8 photons for two r=0.3 squeezers is 4.4e-6
    inst = build_instance(0.3, 2, 1, 1, seed=21)
    a = adjacency(inst)
    r_vec = np.full(2, 0.3)
    total = sum(outcome_probability(a, r_vec, pat)
                for pat in enumerate_patterns(2, 8))
    assert 1.0 - 1e-5 <= total <= 1.0 + 1e-12


@pytest.mark.parametrize("params, seed, n_max", [((0.3, 2, 2, 1), 7, 14),
                                                 ((0.4, 3, 2, 1), 12, 8)])
def test_outcome_table_moments_match_closed_forms(params, seed, n_max):
    # For squeezing r into U, n = sinh^2 r U* U^T and m = sinh r cosh r U U^T
    # give <n_i> = n_ii and Cov(n_i, n_j) = |n_ij|^2 + |m_ij|^2 + delta_ij n_ii.
    # The enumerated table misses only patterns of total N > n_max, and
    # n_i <= N on them, so its means are off by at most T1 = sum_{N > n_max}
    # N Pr(N) and its second moments by at most T2 = sum_{N > n_max} N^2
    # Pr(N); its covariances, whose product of means loses at most
    # (<n_i> + <n_j>) T1, by at most T2 + (<n_i> + <n_j>) T1. Measured:
    # 9.1e-8 and 6.4e-7 against T1 3.6e-7 and T2 5.9e-6 for the first case,
    # 4.0e-3 and 1.6e-2 against 3.6e-2 and 0.39 for the second.
    inst = build_instance(*params, seed=seed)
    r, u, modes = inst.r, inst.unitary, inst.modes
    patterns = np.array(list(enumerate_patterns(modes, n_max)))
    probs = outcome_probability(adjacency(inst), np.full(modes, r), patterns)
    mean_table = probs @ patterns
    cov_table = patterns.T @ (probs[:, None] * patterns) - np.outer(mean_table, mean_table)
    n = math.sinh(r) ** 2 * (u.conj() @ u.T)
    m = math.sinh(r) * math.cosh(r) * (u @ u.T)
    mean = n.diagonal().real
    cov = np.abs(n) ** 2 + np.abs(m) ** 2 + np.diag(mean)
    totals = np.arange(201)
    law = lossy_total_dist_closed(modes, r, 1.0, 200).probs
    tail1 = float((totals * law)[n_max + 1:].sum())
    tail2 = float((totals ** 2 * law)[n_max + 1:].sum())
    slack = 1e-10      # the table's own round-off
    assert np.abs(mean_table - mean).max() <= tail1 + slack
    bound = tail2 + (mean[:, None] + mean[None, :]) * tail1 + slack
    assert np.all(np.abs(cov_table - cov) <= bound)


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


@pytest.mark.parametrize("modes, n_max", [(1, 0), (1, 3), (2, 4), (3, 2), (4, 4), (5, 3)])
def test_pattern_enumeration_order_is_lexicographic(modes, n_max):
    # exact_sample's draws index this order, so it is pinned here
    expected = [p for p in itertools.product(range(n_max + 1), repeat=modes)
                if sum(p) <= n_max]
    got = list(enumerate_patterns(modes, n_max))
    assert got == expected
    assert all(type(x) is int for p in got for x in p)


# ----------------------------------------------- squeezing and truncation

def test_outcome_probability_rejects_fractional_pattern():
    # [0, 1.9, 1.2, 0] used to give the probability of [0, 1, 1, 0]
    inst = build_instance(0.3, 2, 2, 1, seed=1)
    a, r_vec = adjacency(inst), [0.3] * 4
    assert outcome_probability(a, r_vec, [0, 1, 1, 0]) > 0
    with pytest.raises(ContractViolationError, match="non-negative integers"):
        outcome_probability(a, r_vec, [0, 1.9, 1.2, 0])


BAD_R = [float("nan"), float("inf"), -0.3]


@pytest.mark.parametrize("r", BAD_R, ids=["nan", "inf", "negative"])
@pytest.mark.parametrize("law", [
    lambda r: outcome_probability(np.zeros((2, 2)), [0.5, r], [1, 1]),
    lambda r: photon_moments(r, eta=0.5, modes=4),
    lambda r: photon_moments([0.5, r], eta=0.5),
    lambda r: squeezed_vacuum_dist(r, 10),
    lambda r: lossy_total_dist_closed(4, r, 0.5, 10),
    lambda r: total_dist_convolution([0.5, r], 0.5, 10),
    lambda r: mean_total_photons(4, r),
    lambda r: most_probable_even(4, r),
], ids=["outcome_probability", "moments-scalar", "moments-vector",
        "squeezed_vacuum", "closed", "convolution", "mean_total", "most_probable"])
def test_squeezing_must_be_finite_and_non_negative(law, r):
    with pytest.raises(ContractViolationError, match="finite and >= 0"):
        law(r)


@pytest.mark.parametrize("law, message", [
    (lambda: photon_moments([0.5, 0.5], 1.0, modes=5), "does not match 2"),
    (lambda: photon_moments(0.5, 1.0, modes=-3), "must be >= 1"),
    (lambda: photon_moments(0.5, 1.0, modes=2.0), "must be an integer"),
    (lambda: lossy_total_dist_closed(2.5, 0.5, 0.5, 4), "must be an integer"),
    (lambda: most_probable_even(2.5, 0.5), "must be an integer"),
    (lambda: mean_total_photons(2.5, 0.5), "must be an integer"),
    (lambda: mean_total_photons(True, 0.5), "must be an integer"),
    (lambda: exact_sample(build_instance(0.3, 2, 1, 1, seed=0), 2, -1, seed=0),
     "must be >= 0"),
], ids=["moments-vs-r", "moments-negative", "moments-float", "closed", "most_probable",
        "mean_total", "mean_total-bool", "exact_sample"])
def test_counts_must_be_consistent_integers(law, message):
    with pytest.raises(ContractViolationError, match=message):
        law()


def test_counts_accept_numpy_integers():
    four = np.int64(4)
    assert photon_moments([0.5] * 4, 1.0, modes=four) == photon_moments(0.5, 1.0, modes=4)
    assert photon_moments(0.5, 1.0, modes=np.int32(4)) == photon_moments(0.5, 1.0, modes=4)
    assert (lossy_total_dist_closed(four, 0.5, 0.5, 6).log_probs.tobytes()
            == lossy_total_dist_closed(4, 0.5, 0.5, 6).log_probs.tobytes())
    assert most_probable_even(np.int64(216), 0.8) == 168
    assert mean_total_photons(four, 0.5) == mean_total_photons(4, 0.5)
    samples, _ = exact_sample(build_instance(0.3, 2, 1, 1, seed=0), 2, np.int64(3), seed=0)
    assert len(samples) == 3


TRUNCATED_LAW_LIST = [
    lambda n_max: squeezed_vacuum_dist(0.5, n_max),
    lambda n_max: lossy_total_dist_closed(4, 0.5, 0.5, n_max),
    lambda n_max: total_dist_convolution([0.5] * 4, 0.5, n_max),
    lambda n_max: binomial_thinning_matrix(0.5, n_max),
    lambda n_max: exact_sample(build_instance(0.3, 2, 1, 1, seed=0), n_max, 1, seed=0),
]
TRUNCATED_IDS = ["squeezed_vacuum", "closed", "convolution", "thinning", "exact_sample"]
TRUNCATED_LAWS = pytest.mark.parametrize("law", TRUNCATED_LAW_LIST, ids=TRUNCATED_IDS)


def _dist_truncated_at(n_max):
    # a law's n_max is len(log_probs) - 1, so every negative n_max is an empty law
    return PhotonNumberDist(np.zeros(max(n_max + 1, 0)))


@pytest.mark.parametrize("n_max", [-1, -2])
@pytest.mark.parametrize("law", TRUNCATED_LAW_LIST + [_dist_truncated_at],
                         ids=TRUNCATED_IDS + ["dist"])
def test_truncation_must_be_non_negative(law, n_max):
    # the dist case is an empty law, which the constructor refuses as such
    match = "non-empty 1-D" if law is _dist_truncated_at else "n_max must be >= 0"
    with pytest.raises(ContractViolationError, match=match):
        law(n_max)


@pytest.mark.parametrize("n_max", [2.5, True], ids=["fraction", "bool"])
@TRUNCATED_LAWS
def test_truncation_must_be_an_integer(law, n_max):
    # 2.5 used to end in a bare TypeError, and True was read as 1
    with pytest.raises(ContractViolationError, match="n_max must be an integer"):
        law(n_max)


@pytest.mark.parametrize("law", [
    lambda: photon_moments(np.full((2, 3), 0.5), 0.5),
    lambda: total_dist_convolution(np.full((2, 2), 0.5), 0.5, 4),
], ids=["moments", "convolution"])
def test_squeezing_must_be_one_number_or_one_dimensional(law):
    # the 2 x 3 array used to be read as six squeezers
    with pytest.raises(ContractViolationError, match="one number or a 1-D array"):
        law()
