"""Numerically stable log-space primitives.

Probabilities in this package routinely involve factors like sech^216(r)
that underflow double precision, so accumulation happens in log space and
is exponentiated as late as possible.
"""

import math

NEG_INF = float("-inf")
HYP2F1_REL_TOL = 1e-16
HYP2F1_MAX_TERMS = 10 ** 6


def log_factorial(n: int) -> float:
    return math.lgamma(n + 1)


def log_binomial(x: float, k: float) -> float:
    """log C(x, k) via lgamma; x and k may be non-integer (x-k+1 > 0)."""
    return math.lgamma(x + 1) - math.lgamma(k + 1) - math.lgamma(x - k + 1)


def log_hyp2f1(a: float, b: float, c: float, z: float) -> float:
    """log of the Gauss hypergeometric series 2F1(a, b; c; z).

    Valid for a, b, c > 0 and 0 <= z < 1, where every term of the series
    is positive. Terms are accumulated by a streaming log-sum-exp so the
    result stays finite even when the sum is astronomically large.
    Terminates once a term falls below HYP2F1_REL_TOL of the running sum.
    """
    if not 0.0 <= z < 1.0:
        raise ValueError(f"series requires 0 <= z < 1, got z={z}")
    if z == 0.0:
        return 0.0
    log_rel_tol = math.log(HYP2F1_REL_TOL)
    log_term = 0.0
    run_max = 0.0   # max of log terms seen so far
    run_sum = 1.0   # sum of exp(log_term - run_max)
    for k in range(HYP2F1_MAX_TERMS):
        ratio = (a + k) * (b + k) / ((c + k) * (k + 1.0)) * z
        log_term += math.log(ratio)
        if log_term > run_max:
            run_sum = run_sum * math.exp(run_max - log_term) + 1.0
            run_max = log_term
        else:
            run_sum += math.exp(log_term - run_max)
        if log_term - (run_max + math.log(run_sum)) < log_rel_tol:
            return run_max + math.log(run_sum)
    raise RuntimeError(f"2F1 series did not converge within {HYP2F1_MAX_TERMS} terms")
