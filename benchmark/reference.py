"""Reference values for the benchmark's checks, derived apart from hdgbs.

Nothing here imports hdgbs. The routines use exact integer arithmetic
(Gaussian integers as pairs of Python ints) or closed forms evaluated with
``math``/numpy, so a fault in the package cannot cancel out against its own
reference. Two literals come from a 40-digit mpmath evaluation; run

    python3 benchmark/reference.py

to recompute them. It exits with status 1 if they differ from the
literals below.
"""

import math
import sys

import numpy as np

# Niagara cost-model constant (Bjorklund, Gupt & Quesada) and the peak-FLOP
# ratio that rescales it to a larger machine.
NIAGARA_C_S = 5.42e-15
RMAX_RATIO = 122.8

# Per-sample cost at (M, r, eta, n_max) = (216, 0.8, 0.5, 400) with
# overhead 100 and probability floor 1e-7: n_cut is the largest count with
# Pr(n) >= 1e-7, and the seconds are
# 100 * sum_{n <= n_cut} Pr(n) * (NIAGARA_C_S / RMAX_RATIO) * n^3 * 2^(n/2).
SAMPLE_COST_POINT = {"modes": 216, "r": 0.8, "eta": 0.5, "n_max": 400,
                     "overhead": 100.0, "p_min": 1e-7}
SAMPLE_COST_N_CUT = 166
SAMPLE_COST_SECONDS = 2.0701001205242e11


# --- Gaussian integers -------------------------------------------------------

def gmul(x, y):
    """Product of two Gaussian integers given as (re, im) int pairs."""
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def gadd(x, y):
    return (x[0] + y[0], x[1] + y[1])


def gaussian_int_permanent(g):
    """Exact permanent of a square matrix of Gaussian integers.

    ``g`` is a list of rows of (re, im) int pairs. Ryser's formula with
    Gray-code column updates, evaluated in Python integers, so the result
    is exact at any size.
    """
    n = len(g)
    if n == 0:
        return (1, 0)
    rowsum = [(0, 0)] * n
    total = (0, 0)
    prev = 0
    for k in range(1, 1 << n):
        gray = k ^ (k >> 1)
        bit = gray ^ prev
        j = bit.bit_length() - 1
        sign = 1 if gray & bit else -1
        rowsum = [(s[0] + sign * row[j][0], s[1] + sign * row[j][1])
                  for s, row in zip(rowsum, g)]
        prev = gray
        prod = (1, 0)
        for s in rowsum:
            prod = gmul(prod, s)
        if (n - gray.bit_count()) % 2:
            prod = (-prod[0], -prod[1])
        total = gadd(total, prod)
    return total


def double_factorial(k: int) -> int:
    """k!! for k >= -1, with (-1)!! = 0!! = 1."""
    return math.prod(range(k, 0, -2)) if k > 0 else 1


def hafnian_rank_two(u, w):
    """Exact Hafnian of u u^T + w w^T for Gaussian-integer vectors.

    Each matching edge {i, j} contributes u_i u_j + w_i w_j. Expanding,
    the Hafnian is sum_k (2k-1)!! (n-2k-1)!! e_k, where e_k collects the
    products that take u on 2k indices and w on the rest, i.e. e_k is the
    t^(2k) coefficient of prod_i (w_i + t u_i). With w = 0 this reduces
    to the rank-one form (n-1)!! prod_i u_i.
    """
    n = len(u)
    if n % 2:
        return (0, 0)
    poly = [(1, 0)]
    for ui, wi in zip(u, w):
        nxt = [(0, 0)] * (len(poly) + 1)
        for k, c in enumerate(poly):
            nxt[k] = gadd(nxt[k], gmul(c, wi))
            nxt[k + 1] = gadd(nxt[k + 1], gmul(c, ui))
        poly = nxt
    total = (0, 0)
    for k in range(n // 2 + 1):
        f = double_factorial(2 * k - 1) * double_factorial(n - 2 * k - 1)
        total = gadd(total, (f * poly[2 * k][0], f * poly[2 * k][1]))
    return total


def as_complex(x) -> complex:
    return complex(x[0], x[1])


# --- Delay-line instances ----------------------------------------------------

def gate_count(a: int, dim: int, cycles: int) -> int:
    """Beam-splitters in an (a, D, C) instance: one per mode pair
    (i, i + a^d) for every delay a^d and cycle."""
    m = a ** dim
    return cycles * sum(m - a ** d for d in range(dim))


def light_cone_band(a: int, dim: int, cycles: int) -> int:
    """Width beyond which the unitary is zero: gates in ascending order
    move amplitude down by at most a^d per delay-d sweep."""
    return cycles * (a ** dim - 1) // (a - 1)


# --- Photon-number laws ------------------------------------------------------

def lossless_total_law(modes: int, r: float, n_max: int) -> np.ndarray:
    """Pr(n) of the total count of M lossless single-mode squeezers:
    Pr(2k) = C(M/2 + k - 1, k) sech^M r tanh^(2k) r, zero on odd n."""
    p = np.zeros(n_max + 1)
    log_sech_m = -modes * math.log(math.cosh(r))
    log_t2 = 2.0 * math.log(math.tanh(r))
    for k in range(n_max // 2 + 1):
        log_c = (math.lgamma(modes / 2 + k) - math.lgamma(k + 1)
                 - math.lgamma(modes / 2))
        p[2 * k] = math.exp(log_c + log_sech_m + k * log_t2)
    return p


def thinned_total_law(modes: int, r: float, eta: float, n_max: int,
                      k_max: int = 700) -> np.ndarray:
    """Pr(n) after uniform loss: the lossless law (to 2 k_max photons)
    pushed through binomial thinning, summed in log space per n."""
    k = np.arange(k_max + 1)
    m = 2 * k
    log_fact = np.array([math.lgamma(i + 1) for i in range(2 * k_max + 1)])
    log_law = (np.array([math.lgamma(modes / 2 + i) for i in k]) - log_fact[k]
               - math.lgamma(modes / 2) - modes * math.log(math.cosh(r))
               + k * 2.0 * math.log(math.tanh(r)))
    out = np.empty(n_max + 1)
    for n in range(n_max + 1):
        sel = m >= n
        mm = m[sel]
        terms = (log_law[sel] + log_fact[mm] - log_fact[n] - log_fact[mm - n]
                 + n * math.log(eta) + (mm - n) * math.log1p(-eta))
        top = terms.max()
        out[n] = math.exp(top) * float(np.exp(terms - top).sum())
    return out


def photon_moments(modes: int, r: float, eta: float) -> tuple[float, float]:
    """Mean and variance of the detected total count: with s = sinh^2 r,
    mean = eta M s and var = eta M s (1 + eta (1 + 2 s))."""
    s = math.sinh(r) ** 2
    return eta * modes * s, eta * modes * s * (1.0 + eta * (1.0 + 2.0 * s))


def sample_cost(probs, c: float, overhead: float, p_min: float) -> tuple[float, int]:
    """(seconds, n_cut) of the per-sample cost estimate from a count law."""
    n_cut = max(n for n, p in enumerate(probs) if p >= p_min)
    total = math.fsum(probs[n] * c * n ** 3 * 2.0 ** (n / 2) for n in range(n_cut + 1))
    return overhead * total, n_cut


# --- Recomputing the literals -------------------------------------------------

def recompute_sample_cost(digits: int = 40) -> tuple[float, int]:
    """The per-sample cost literal in mpmath at ``digits`` digits, from the
    lossless law pushed through binomial thinning."""
    import mpmath as mp

    mp.mp.dps = digits
    pt = SAMPLE_COST_POINT
    modes, n_max = pt["modes"], pt["n_max"]
    r, eta = mp.mpf(pt["r"]), mp.mpf(pt["eta"])
    k_max = 700
    sech_m = mp.sech(r) ** modes
    t2 = mp.tanh(r) ** 2
    law = [mp.binomial(mp.mpf(modes) / 2 + k - 1, k) * sech_m * t2 ** k
           for k in range(k_max + 1)]
    probs = []
    for n in range(n_max + 1):
        probs.append(mp.fsum(law[k] * mp.binomial(2 * k, n) * eta ** n
                             * (1 - eta) ** (2 * k - n)
                             for k in range((n + 1) // 2, k_max + 1)))
    p_min = mp.mpf(pt["p_min"])
    n_cut = max(n for n in range(n_max + 1) if probs[n] >= p_min)
    c = mp.mpf(NIAGARA_C_S) / mp.mpf(RMAX_RATIO)
    seconds = pt["overhead"] * mp.fsum(probs[n] * c * mp.mpf(n) ** 3 * mp.power(2, mp.mpf(n) / 2)
                                       for n in range(n_cut + 1))
    return float(seconds), n_cut


def main() -> int:
    seconds, n_cut = recompute_sample_cost()
    ok = n_cut == SAMPLE_COST_N_CUT and abs(seconds / SAMPLE_COST_SECONDS - 1.0) < 1e-13
    print(f"n_cut {n_cut} (literal {SAMPLE_COST_N_CUT}); "
          f"seconds {seconds!r} (literal {SAMPLE_COST_SECONDS!r}): "
          f"{'match' if ok else 'DIFFER'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
