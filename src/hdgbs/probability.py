"""Outcome probabilities and total photon-number statistics.

The probability of a photon-count pattern n for a Gaussian state with
adjacency matrix A and squeezing parameters r_j is

    Pr(n) = |Haf(A_nn)|^2 / (prod_j n_j! cosh r_j),

where A_nn repeats row/column j of A a total of n_j times. Total-count
distributions are available through two independent routes: a closed form
built on the Gauss hypergeometric series, and binomial thinning of each
mode's squeezed-vacuum distribution followed by direct convolution
(uniform loss commutes with the interferometer, so total-count statistics
do not depend on the unitary). All mass functions are stored in log space.
"""

import math
from dataclasses import dataclass, field
from math import comb

import numpy as np

from .circuit import GbsInstance, adjacency
from .errors import ContractViolationError, ResourceLimitError
from .hafnian import FAST_CEILING, hafnian_fast
from .logmath import NEG_INF, log_binomial, log_factorial, log_hyp2f1
from .matrices import (_counts, _integer, _real, _square, _squeezing, as_rng,
                       reduce_by_pattern)

MASS_SLACK = 1e-9
PATTERN_BUDGET = 10 ** 7


@dataclass(frozen=True, eq=False)
class PhotonNumberDist:
    """Probability mass over the total photon count 0..n_max, in log space,
    with n_max = len(log_probs) - 1.

    ``eta`` records the transmission when it is known; a law read back
    from a file has none. With ``eta`` 1.0 (lossless) the law may carry no
    odd-count mass. ``log_probs`` and ``eta`` are stored as the float copies
    checked, read-only for the array, so the law cannot change."""

    log_probs: np.ndarray = field(repr=False)
    eta: float | None = field(default=None, kw_only=True)

    def __post_init__(self):
        lp = np.array(self.log_probs, dtype=float)
        if lp.ndim != 1 or lp.size == 0:
            raise ContractViolationError(
                "log_probs must be a non-empty 1-D array (n_max = len - 1 must be >= 0)"
                f", got shape {lp.shape}")
        if self.eta is not None:
            object.__setattr__(self, "eta", _real(self.eta, "transmission eta", 0, 1))
        if not np.all(lp < math.inf):     # -inf is zero mass; NaN and +inf are not
            raise ContractViolationError("log_probs must not hold NaN or +inf")
        total = float(np.exp(lp).sum())
        if total > 1.0 + MASS_SLACK:
            raise ContractViolationError(f"total mass {total} exceeds 1")
        if self.eta == 1.0 and np.any(lp[1::2] > NEG_INF):
            raise ContractViolationError("lossless distribution has odd-count mass")
        lp.setflags(write=False)
        object.__setattr__(self, "log_probs", lp)

    @property
    def n_max(self) -> int:
        return len(self.log_probs) - 1

    @property
    def probs(self) -> np.ndarray:
        return np.exp(self.log_probs)

    @property
    def truncation_deficit(self) -> float:
        """Mass missing from [0, n_max] because of truncation (>= 0 up to
        float round-off)."""
        return 1.0 - float(self.probs.sum())

    def mean(self) -> float:
        p = self.probs
        return float(np.arange(self.n_max + 1) @ p)

    def variance(self) -> float:
        p = self.probs
        n = np.arange(self.n_max + 1)
        mu = float(n @ p)
        return float(((n - mu) ** 2) @ p)

    def std(self) -> float:
        return math.sqrt(self.variance())

    def most_probable(self) -> int:
        return int(np.argmax(self.log_probs))


def squeezed_vacuum_log_probs(r: float, n_max: int) -> np.ndarray:
    """log p(n) of a single-mode squeezed vacuum, p(2k) =
    (2k)! tanh^2k(r) / (4^k (k!)^2 cosh r), zero on odd counts."""
    _squeezing(r)
    n_max = _integer(n_max, "truncation n_max", 0)
    lp = np.full(n_max + 1, NEG_INF)
    log_sech = -math.log(math.cosh(r))
    if r == 0.0:
        lp[0] = 0.0
        return lp
    log_tanh = math.log(math.tanh(r))
    for k in range(n_max // 2 + 1):
        lp[2 * k] = (log_factorial(2 * k) - 2 * log_factorial(k)
                     - k * math.log(4.0) + 2 * k * log_tanh + log_sech)
    return lp


def squeezed_vacuum_dist(r: float, n_max: int) -> PhotonNumberDist:
    return PhotonNumberDist(squeezed_vacuum_log_probs(r, n_max), eta=1.0)


def lossy_total_dist_closed(modes: int, r: float, eta: float,
                            n_max: int) -> PhotonNumberDist:
    """Closed-form total photon-number distribution of M identical
    squeezers under uniform transmission eta.

    For even n,
        Pr(n) = eta^n C(M/2 + n/2 - 1, n/2) sech^M(r) tanh^n(r)
                * 2F1(n/2 + 1/2, M/2 + n/2; 1/2; z),
    and for odd n,
        Pr(n) = (1 - eta)(n + 1) eta^n C((M + n - 1)/2, (n + 1)/2)
                * sech^M(r) tanh^(n+1)(r)
                * 2F1((n + 2)/2, (M + n + 1)/2; 3/2; z),
    with z = (1 - eta)^2 tanh^2(r) < 1. At eta = 1 the hypergeometric
    factor is 1 and all odd-count mass vanishes, recovering the lossless
    convolution limit.
    """
    modes = _integer(modes, "mode count", 1)
    _squeezing(r)
    eta = _real(eta, "transmission eta", 0, 1)
    n_max = _integer(n_max, "truncation n_max", 0)
    lp = np.full(n_max + 1, NEG_INF)
    if r == 0.0 or eta == 0.0:
        lp[0] = 0.0
        return PhotonNumberDist(lp, eta=eta)
    log_tanh = math.log(math.tanh(r))
    log_sech_m = -modes * math.log(math.cosh(r))
    log_eta = math.log(eta)
    z = (1.0 - eta) ** 2 * math.tanh(r) ** 2
    for n in range(n_max + 1):
        if n % 2 == 0:
            lp[n] = (n * log_eta
                     + log_binomial((modes + n) / 2 - 1, n / 2)
                     + log_sech_m + n * log_tanh
                     + log_hyp2f1(n / 2 + 0.5, (modes + n) / 2, 0.5, z))
        elif eta < 1.0:
            lp[n] = (math.log1p(-eta) + math.log(n + 1) + n * log_eta
                     + log_binomial((modes + n - 1) / 2, (n + 1) / 2)
                     + log_sech_m + (n + 1) * log_tanh
                     + log_hyp2f1((n + 2) / 2, (modes + n + 1) / 2, 1.5, z))
    return PhotonNumberDist(lp, eta=eta)


def binomial_thinning_matrix(eta: float, n_max: int) -> np.ndarray:
    """L[k, n] = C(n, k) eta^k (1-eta)^(n-k): the action of uniform photon
    loss on a count distribution (columns sum to 1)."""
    eta = _real(eta, "transmission eta", 0, 1)
    n_max = _integer(n_max, "truncation n_max", 0)
    size = n_max + 1
    if eta == 1.0:
        return np.eye(size)
    mat = np.zeros((size, size))
    if eta == 0.0:
        mat[0, :] = 1.0
        return mat
    log_eta, log_keep = math.log(eta), math.log1p(-eta)
    # lgamma(j + 1) once per j: log C(n, k) = lf[n] - lf[k] - lf[n - k]
    lf = [math.lgamma(j + 1) for j in range(size)]
    exp = math.exp
    for n in range(size):
        mat[:n + 1, n] = [exp(lf[n] - lf[k] - lf[n - k] + k * log_eta + (n - k) * log_keep)
                          for k in range(n + 1)]
    return mat


def total_dist_convolution(r_vec, eta: float, n_max: int) -> PhotonNumberDist:
    """Total photon-number distribution by per-mode binomial thinning and
    iterated direct convolution, truncated at n_max after every step.

    Serves as the independent cross-check of the closed form; the two
    agree to better than 1e-10 per count over the supported grid.
    """
    r = np.atleast_1d(_squeezing(r_vec))
    if r.size == 0:
        raise ContractViolationError("r_vec must contain at least one mode")
    eta = _real(eta, "transmission eta", 0, 1)
    n_max = _integer(n_max, "truncation n_max", 0)
    # eta = 0 maps every count to zero regardless of the pre-thinning tail,
    # so short-circuit to the exact point mass
    if eta == 0.0:
        lp = np.full(n_max + 1, NEG_INF)
        lp[0] = 0.0
        return PhotonNumberDist(lp, eta=0.0)
    thin = binomial_thinning_matrix(eta, n_max)
    total = np.zeros(n_max + 1)
    total[0] = 1.0
    cache: dict[float, np.ndarray] = {}
    for ri in r:
        key = float(ri)
        if key not in cache:
            cache[key] = thin @ np.exp(squeezed_vacuum_log_probs(key, n_max))
        total = np.convolve(total, cache[key])[: n_max + 1]
    with np.errstate(divide="ignore"):
        lp = np.log(total)
    return PhotonNumberDist(lp, eta=eta)


def photon_moments(r, eta: float, modes: int | None = None) -> tuple[float, float]:
    """Mean and variance of the detected total photon count.

    For M identical squeezers, E(n) = eta M sinh^2 r and
    Var(n) = eta M sinh^2 r (1 + eta (1 + 2 sinh^2 r)). A sequence of
    per-mode squeezing parameters sums the same per-mode expressions,
    which stays polynomial-time for non-uniform inputs; a ``modes`` given
    with it must equal its length.
    """
    eta = _real(eta, "transmission eta", 0, 1)
    r_arr = _squeezing(r)
    if modes is not None:
        modes = _integer(modes, "mode count", 1)
    if r_arr.ndim == 0:
        if modes is None:
            raise ContractViolationError("scalar r requires a mode count")
        r_arr = np.full(modes, float(r_arr))
    elif modes not in (None, r_arr.size):
        raise ContractViolationError(
            f"mode count {modes} does not match {r_arr.size} squeezing parameters")
    s = np.sinh(r_arr) ** 2
    mean = eta * float(s.sum())
    variance = float(np.sum(eta * s * (1.0 + eta * (1.0 + 2.0 * s))))
    return mean, variance


def mean_total_photons(k: int, r: float) -> float:
    """Expected total photon count of k squeezers at parameter r."""
    k = _integer(k, "k", 0)
    _squeezing(r)
    return k * math.sinh(r) ** 2


def most_probable_even(modes: int, r: float) -> int:
    """Most likely outcome of the lossless total-count distribution,
    n* = 2 floor((M/2 - 1) sinh^2 r)."""
    modes = _integer(modes, "mode count", 2)
    _squeezing(r)
    if r == 0:
        return 0
    return 2 * math.floor((modes / 2.0 - 1.0) * math.sinh(r) ** 2)


def outcome_probability(a: np.ndarray, r_vec, pattern,
                        workers: int = 1) -> float | np.ndarray:
    """Pr(n) = |Haf(A_nn)|^2 / (prod_j n_j! cosh r_j).

    ``r_vec`` holds one squeezing parameter per mode. The prefactor is
    assembled in log space; the Hafnian itself is exact complex
    arithmetic. Patterns whose total exceeds the fast-path ceiling are
    refused.

    ``pattern`` may also be a stack of patterns, shape (..., modes); the
    result is then an array of shape (...). The patterns of each photon
    total go to ``hafnian_fast`` as one stack, and each probability equals
    the one its pattern gives alone, bit for bit.
    """
    a = _square(a)
    modes = a.shape[0]
    if np.shape(r_vec) != (modes,):
        raise ContractViolationError(
            f"r_vec has shape {np.shape(r_vec)}, expected ({modes},), one entry per mode")
    r = _squeezing(r_vec)
    counts = _counts(pattern, modes, stack=True)
    rows = counts.reshape(-1, modes)
    totals = rows.sum(axis=1)
    if totals.size and totals.max() > FAST_CEILING:
        raise ResourceLimitError(
            f"pattern with {totals.max()} photons exceeds the Hafnian ceiling")
    log_cosh = float(np.sum(np.log(np.cosh(r))))
    log_fact = [log_factorial(k) for k in range(int(rows.max(initial=0)) + 1)]
    probs = np.zeros(len(rows))
    for total in sorted(set(totals.tolist())):
        picked = np.flatnonzero(totals == total)
        group = rows[picked]
        hafs = hafnian_fast(reduce_by_pattern(a, group), workers=workers)
        for i, h, row in zip(picked.tolist(), hafs.tolist(), group.tolist()):
            if h != 0:
                log_pref = -(sum(log_fact[c] for c in row) + log_cosh)
                probs[i] = math.exp(2.0 * math.log(abs(h)) + log_pref)
    if counts.ndim == 1:
        return float(probs[0])
    return probs.reshape(counts.shape[:-1])


def enumerate_patterns(modes: int, n_max: int):
    """Yield every count pattern over ``modes`` modes with total <= n_max,
    in lexicographic order."""
    def rec(prefix, remaining, left):
        if left == 1:
            for t in range(remaining + 1):
                yield prefix + (t,)
            return
        for t in range(remaining + 1):
            yield from rec(prefix + (t,), remaining - t, left - 1)

    yield from rec((), n_max, modes)


def pattern_count(modes: int, n_max: int) -> int:
    return comb(modes + n_max, modes)


def exact_sample(instance: GbsInstance, n_max: int, count: int,
                 seed) -> tuple[list[tuple[int, ...]], float]:
    """Draw i.i.d. outcome patterns by enumerating every pattern with at
    most n_max photons, computing its exact probability and sampling the
    renormalized table.

    Only feasible at desk scale; the enumeration is refused if the
    pattern count exceeds 10^7. Returns (samples, truncated_mass) where
    truncated_mass is the probability weight outside the enumerated
    support.
    """
    n_max = _integer(n_max, "truncation n_max", 0)
    count = _integer(count, "sample count", 0)
    modes = instance.modes
    n_patterns = pattern_count(modes, n_max)
    if n_patterns > PATTERN_BUDGET:
        raise ResourceLimitError(
            f"{n_patterns} patterns exceed the enumeration budget of {PATTERN_BUDGET}")
    a = adjacency(instance)
    r_vec = np.full(modes, instance.r)
    patterns = list(enumerate_patterns(modes, n_max))
    probs = outcome_probability(a, r_vec, patterns)
    mass = float(probs.sum())
    if mass <= 0.0:
        raise ContractViolationError("enumerated support carries no probability")
    rng = as_rng(seed)
    draws = rng.choice(len(patterns), size=count, p=probs / mass)
    return [patterns[i] for i in draws], max(0.0, 1.0 - mass)
