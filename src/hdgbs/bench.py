"""Hafnian wall-time benchmarking, the c * n^3 * 2^(n/2) cost model, and
per-sample cost estimation.

The model has a single machine constant c: fitting is a slope-1 least
squares of log t against log(n^3 2^(n/2)). Estimates for other machines
come from rescaling c by the ratio of their peak floating-point scores,
and the expected per-sample cost of a sampler is the model averaged over
the total photon-number distribution up to a probability cutoff.
"""

import math
import time
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolationError
from .hafnian import hafnian_fast
from .logmath import NEG_INF
from .matrices import random_symmetric
from .probability import PhotonNumberDist


@dataclass(frozen=True)
class BenchRecord:
    n: int
    wall_seconds: float
    reps: int
    threads: int

    def __post_init__(self):
        if not 0.0 < self.wall_seconds < math.inf:
            raise ContractViolationError(
                f"wall_seconds must be positive and finite, got {self.wall_seconds}")
        if self.n % 2 or self.n < 2:
            raise ContractViolationError(f"benchmark sizes must be positive even, got {self.n}")
        if self.reps < 1 or self.threads < 1:
            raise ContractViolationError(
                f"reps and threads must be >= 1, got {self.reps} and {self.threads}")


@dataclass(frozen=True)
class CostModel:
    """t(n) = c * n^3 * 2^(n/2) with machine constant c in seconds."""

    c: float
    r_squared: float
    machine_label: str

    def __post_init__(self):
        if not 0.0 < self.c < math.inf:
            raise ContractViolationError("model constant must be positive" if self.c <= 0
                                         else f"model constant must be finite, got {self.c}")
        if not 0.0 <= self.r_squared <= 1.0:
            raise ContractViolationError("r_squared must lie in [0, 1]")

    def seconds(self, n: int) -> float:
        return self.c * n ** 3 * 2.0 ** (n / 2.0)


def model_log_time(n: int) -> float:
    """log(n^3 2^(n/2)), the fit abscissa."""
    return 3.0 * math.log(n) + (n / 2.0) * math.log(2.0)


def bench_hafnian(sizes, reps: int, seed, workers: int = 1) -> list[BenchRecord]:
    """Median wall time of ``hafnian_fast`` on one random complex
    symmetric matrix per size; a single warm-up run per size is discarded.
    Timings use the monotonic performance counter."""
    if reps < 1:
        raise ContractViolationError(f"reps must be >= 1, got {reps}")
    records = []
    for idx, n in enumerate(sizes):
        if n % 2 or n < 2:
            raise ContractViolationError(f"sizes must be positive even, got {n}")
        b = random_symmetric(n, int(seed) + idx)
        hafnian_fast(b, workers=workers)           # warm-up, excluded
        times = []
        for _ in range(reps):
            t0 = time.perf_counter()
            hafnian_fast(b, workers=workers)
            times.append(time.perf_counter() - t0)
        records.append(BenchRecord(n=int(n), wall_seconds=float(np.median(times)),
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
    """Rescale the machine constant by a ratio of peak FLOP scores."""
    if not 0.0 < rmax_ratio < math.inf:
        raise ContractViolationError(
            f"rmax ratio must be positive and finite, got {rmax_ratio}")
    label = machine_label or f"{model.machine_label}/ratio{rmax_ratio:g}"
    return CostModel(c=model.c / rmax_ratio, r_squared=model.r_squared,
                     machine_label=label)


def sample_time_estimate(dist: PhotonNumberDist, model: CostModel,
                         overhead: float, p_min: float) -> tuple[float, int]:
    """Expected seconds to produce one sample.

    n_cut is the largest count with Pr(n) >= p_min; the estimate is
    overhead * sum_{n <= n_cut} Pr(n) * c * n^3 * 2^(n/2). Linear in both
    overhead and the machine constant; an estimate beyond float range is
    refused.
    """
    if not 1.0 <= overhead < math.inf:
        raise ContractViolationError(f"overhead must be finite and >= 1, got {overhead}")
    if not 0.0 < p_min < 1.0:
        raise ContractViolationError(f"p_min must lie in (0, 1), got {p_min}")
    lp = np.asarray(dist.log_probs)
    if lp.size == 0 or not np.any(lp > NEG_INF):
        raise ContractViolationError("distribution carries no probability mass")
    qualifying = np.nonzero(lp >= math.log(p_min))[0]
    if qualifying.size == 0:
        raise ContractViolationError(f"no count reaches probability {p_min}")
    n_cut = int(qualifying.max())
    ns = np.arange(n_cut + 1)
    with np.errstate(over="raise"):
        probs = np.exp(lp[: n_cut + 1])
    with np.errstate(over="ignore", invalid="ignore"):
        total = float(np.sum(probs * model.c * ns.astype(float) ** 3 * 2.0 ** (ns / 2.0)))
    seconds = overhead * total
    if not seconds < math.inf:        # an overflow, or NaN from 0 * inf
        raise ContractViolationError(
            f"estimate up to n_cut = {n_cut} exceeds float range")
    return seconds, n_cut
