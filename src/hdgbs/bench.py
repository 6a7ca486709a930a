"""Hafnian wall-time benchmarking, the c * n^3 * 2^(n/2) cost model, and
per-sample cost estimation.

The model has a single machine constant c: fitting is a slope-1 least
squares of log t against log(n^3 2^(n/2)). Estimates for other machines
come from rescaling c by the ratio of their peak floating-point scores,
and the expected per-sample cost of a sampler is the model averaged over
the total photon-number distribution up to a probability cutoff.
"""

import math
import sys
import time
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolationError
from .hafnian import hafnian_fast
from .logmath import NEG_INF
from .matrices import _integer, _real, random_symmetric


def _size(n) -> int:
    """A benchmark size as an int once it is an even integer >= 2."""
    n = _integer(n, "benchmark size", 2)
    if n % 2:
        raise ContractViolationError(f"benchmark sizes must be even, got {n}")
    return n


@dataclass(frozen=True)
class BenchRecord:
    n: int
    wall_seconds: float
    reps: int
    threads: int

    def __post_init__(self):
        for name, value in (
                ("wall_seconds", _real(self.wall_seconds, "wall_seconds", 0, math.inf, "()")),
                ("n", _size(self.n)), ("reps", _integer(self.reps, "reps", 1)),
                ("threads", _integer(self.threads, "threads", 1))):
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class CostModel:
    """t(n) = c * n^3 * 2^(n/2) with machine constant c in seconds; a c
    below the smallest normal float is refused, as ``extrapolate`` refuses
    to produce one."""

    c: float
    r_squared: float
    machine_label: str

    def __post_init__(self):
        c = _real(self.c, "model constant c", 0, math.inf, "()")
        if c < sys.float_info.min:
            raise ContractViolationError(
                f"model constant c must be at least the smallest normal float "
                f"{sys.float_info.min:g}, got {c:g}")
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "r_squared", _real(self.r_squared, "r_squared", 0, 1))
        if not isinstance(self.machine_label, str):
            raise ContractViolationError(
                f"machine_label must be a string, got {self.machine_label!r}")

    def seconds(self, n: int) -> float:
        return self.c * n ** 3 * 2.0 ** (n / 2.0)


def model_log_time(n: int) -> float:
    """log(n^3 2^(n/2)), the fit abscissa."""
    return 3.0 * math.log(n) + (n / 2.0) * math.log(2.0)


def bench_hafnian(sizes, reps: int, seed, workers: int = 1) -> list[BenchRecord]:
    """Median wall time of ``hafnian_fast`` on one random complex
    symmetric matrix per size; a single warm-up run per size is discarded.
    Timings use the monotonic performance counter. The counts and the
    seed, an integer >= 0, are checked before anything is timed."""
    reps = _integer(reps, "reps", 1)
    sizes = [_size(n) for n in sizes]
    seed = _integer(seed, "seed", 0)
    records = []
    for idx, n in enumerate(sizes):
        b = random_symmetric(n, seed + idx)
        hafnian_fast(b, workers=workers)           # warm-up, excluded
        times = []
        for _ in range(reps):
            t0 = time.perf_counter()
            hafnian_fast(b, workers=workers)
            times.append(time.perf_counter() - t0)
        records.append(BenchRecord(n=n, wall_seconds=float(np.median(times)),
                                   reps=reps, threads=workers))
    return records


def fit_cost_model(records, machine_label: str = "local") -> CostModel:
    """Fit c by least squares of log t against log(n^3 2^(n/2)) with the
    slope pinned to 1; reports R^2 of that one-parameter fit."""
    records = list(records)
    if len(records) < 4:
        raise ContractViolationError(f"need >= 4 records to fit, got {len(records)}")
    ns = [r.n for r in records]
    if max(ns) - min(ns) < 12:
        raise ContractViolationError("records must span at least 12 in n")
    y = np.array([math.log(r.wall_seconds) for r in records])
    x = np.array([model_log_time(r.n) for r in records])
    log_c = float(np.mean(y - x))
    resid = y - (x + log_c)
    ss_res = float(np.sum(resid ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return CostModel(c=math.exp(log_c), r_squared=max(0.0, min(1.0, r2)),
                     machine_label=machine_label)


def fit_residuals(records, model: CostModel) -> np.ndarray:
    """Log-space residuals of records against a fitted model, in n order."""
    recs = sorted(records, key=lambda r: r.n)
    return np.array([math.log(r.wall_seconds)
                     - (model_log_time(r.n) + math.log(model.c)) for r in recs])


def residual_trend_pvalue(residuals) -> float:
    """Cox-Stuart sign test for a monotone trend: pair each residual with
    its opposite-half partner and two-sided binomial-test the sign counts.
    Large p means no detectable trend.

    With k non-zero pairs the smallest attainable p is 2^(1-k), reached
    when every pair has the same sign. Eleven residuals give 5 pairs, so
    p >= 0.0625 and a p < 0.05 trend gate on 11 sizes can never fail."""
    res = np.asarray(residuals, dtype=float)
    half = len(res) // 2
    diffs = res[len(res) - half:] - res[:half]
    signs = diffs[diffs != 0]
    n = len(signs)
    if n == 0:
        return 1.0
    k = int(np.sum(signs > 0))
    tail = sum(math.comb(n, i) for i in range(min(k, n - k) + 1)) / 2.0 ** n
    return min(1.0, 2.0 * tail)


def extrapolate(model: CostModel, rmax_ratio: float,
                machine_label: str | None = None) -> CostModel:
    """Rescale the machine constant by a ratio of peak FLOP scores. A ratio
    that takes c past float range, or below the smallest normal float, is
    refused."""
    rmax_ratio = _real(rmax_ratio, "rmax_ratio", 0, math.inf, "()")
    c = model.c / rmax_ratio
    if not sys.float_info.min <= c < math.inf:
        raise ContractViolationError(
            f"rmax_ratio {rmax_ratio:g} takes the model constant c = {model.c:g} "
            f"to {c:g}, outside the normal float range")
    label = machine_label or f"{model.machine_label}/ratio{rmax_ratio:g}"
    return CostModel(c=c, r_squared=model.r_squared, machine_label=label)


def sample_time_estimate(dist, model: CostModel,
                         overhead: float, p_min: float) -> tuple[float, int]:
    """Expected seconds to produce one sample from the total photon-number
    distribution ``dist``, a ``probability.PhotonNumberDist``.

    n_cut is the largest count with Pr(n) >= p_min; the estimate is
    overhead * sum_{n <= n_cut} Pr(n) * c * n^3 * 2^(n/2). Linear in both
    overhead and the machine constant; an estimate beyond float range is
    refused.
    """
    overhead = _real(overhead, "overhead", 1, math.inf, "[)")
    p_min = _real(p_min, "p_min", 0, 1, "()")
    lp = dist.log_probs
    if not np.any(lp > NEG_INF):
        raise ContractViolationError("distribution carries no probability mass")
    qualifying = np.nonzero(lp >= math.log(p_min))[0]
    if qualifying.size == 0:
        raise ContractViolationError(f"no count reaches probability {p_min}")
    n_cut = int(qualifying.max())
    ns = np.arange(n_cut + 1)
    probs = np.exp(lp[: n_cut + 1])
    with np.errstate(over="ignore", invalid="ignore"):
        total = float(np.sum(probs * model.c * ns.astype(float) ** 3 * 2.0 ** (ns / 2.0)))
    seconds = overhead * total
    if not seconds < math.inf:        # an overflow, or NaN from 0 * inf
        raise ContractViolationError(
            f"estimate up to n_cut = {n_cut} exceeds float range")
    return seconds, n_cut
