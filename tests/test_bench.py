"""Tests for the benchmark harness and the cost model."""
import math
import sys

import numpy as np
import pytest

from hdgbs.bench import (BenchRecord, CostModel, bench_hafnian, extrapolate,
                         fit_cost_model, fit_residuals, model_log_time,
                         residual_trend_pvalue, sample_time_estimate)
from hdgbs.errors import ContractViolationError
from hdgbs.logmath import NEG_INF
from hdgbs.probability import PhotonNumberDist


def _synthetic_records(c, sizes, noise=None):
    recs = []
    for i, n in enumerate(sizes):
        t = c * n ** 3 * 2.0 ** (n / 2.0)
        if noise is not None:
            t *= math.exp(noise[i])
        recs.append(BenchRecord(n=n, wall_seconds=t, reps=3, threads=1))
    return recs


def test_bench_single_size():
    records = bench_hafnian([16], reps=3, seed=0)
    assert len(records) == 1
    assert records[0].n == 16 and records[0].wall_seconds > 0
    assert records[0].reps == 3


def test_bench_rejects_odd_sizes():
    with pytest.raises(ContractViolationError):
        bench_hafnian([15], reps=1, seed=0)


def test_bench_ratio_tracks_model():
    # t(n+2)/t(n) should be about 2 ((n+2)/n)^3; allow a wide 50% band
    records = bench_hafnian([24, 26], reps=3, seed=1)
    ratio = records[1].wall_seconds / records[0].wall_seconds
    expected = 2.0 * (26.0 / 24.0) ** 3
    assert 0.5 * expected <= ratio <= 1.5 * expected


def test_fit_recovers_exact_constant():
    c = 3.7e-11
    model = fit_cost_model(_synthetic_records(c, range(16, 38, 2)), "synthetic")
    assert model.c == pytest.approx(c, rel=1e-12)
    assert model.r_squared == pytest.approx(1.0, abs=1e-12)


def test_fit_requires_enough_records():
    with pytest.raises(ContractViolationError):
        fit_cost_model(_synthetic_records(1e-10, [16, 18, 20]))
    with pytest.raises(ContractViolationError):
        fit_cost_model(_synthetic_records(1e-10, [16, 18, 20, 22]))  # span < 12


def test_fit_r_squared_degrades_with_noise():
    rng = np.random.default_rng(2)
    noise = rng.normal(0.0, 0.8, size=11)
    model = fit_cost_model(_synthetic_records(1e-10, range(16, 38, 2), noise))
    assert model.r_squared < 1.0


def test_model_seconds():
    model = CostModel(c=2.0, r_squared=1.0, machine_label="x")
    assert model.seconds(10) == pytest.approx(2.0 * 1000 * 32.0)
    assert model_log_time(10) == pytest.approx(math.log(1000 * 32.0))


def test_extrapolate_identity_and_reference_constant():
    niagara = CostModel(c=5.42e-15, r_squared=1.0, machine_label="niagara")
    assert extrapolate(niagara, 1.0).c == niagara.c
    fugaku = extrapolate(niagara, 122.8, machine_label="fugaku")
    assert fugaku.c == pytest.approx(4.413680781758957e-17, rel=1e-12)
    assert fugaku.machine_label == "fugaku"


def test_extrapolate_monotone():
    model = CostModel(c=1e-14, r_squared=1.0, machine_label="x")
    assert extrapolate(model, 200.0).c < extrapolate(model, 100.0).c
    with pytest.raises(ContractViolationError):
        extrapolate(model, 0.0)


@pytest.mark.parametrize("ratio, c", [(1e-320, "inf"), (1e300, "1e-309")])
def test_extrapolate_refuses_a_ratio_that_takes_c_out_of_normal_range(ratio, c):
    # an overflow to inf, or an underflow to a subnormal c, is named by the
    # ratio that caused it and the model's own constant
    model = CostModel(c=1e-9, r_squared=0.9, machine_label="x")
    with pytest.raises(ContractViolationError,
                       match=rf"rmax_ratio .* model constant c = 1e-09 to {c},"):
        extrapolate(model, ratio)


def test_cost_model_refuses_a_subnormal_constant():
    # the rule extrapolate applies to the c it forms holds for a given c too
    with pytest.raises(ContractViolationError,
                       match=r"^model constant c must be at least the smallest normal float"):
        CostModel(c=1e-310, r_squared=1.0, machine_label="x")
    assert CostModel(c=sys.float_info.min, r_squared=1.0, machine_label="x").c \
        == sys.float_info.min


def _point_mass_at_zero():
    lp = np.array([0.0, NEG_INF, NEG_INF])
    return PhotonNumberDist(lp, eta=1.0)


def test_sample_time_point_mass_is_free():
    model = CostModel(c=1e-10, r_squared=1.0, machine_label="x")
    seconds, n_cut = sample_time_estimate(_point_mass_at_zero(), model,
                                          overhead=100.0, p_min=1e-7)
    assert n_cut == 0
    assert seconds == 0.0


def test_sample_time_linear_in_overhead():
    lp = np.log(np.array([0.5, 0.25, 0.25]))
    dist = PhotonNumberDist(lp, eta=0.5)
    model = CostModel(c=1e-6, r_squared=1.0, machine_label="x")
    s1, _ = sample_time_estimate(dist, model, overhead=100.0, p_min=1e-3)
    s2, _ = sample_time_estimate(dist, model, overhead=200.0, p_min=1e-3)
    assert s2 == pytest.approx(2.0 * s1, rel=1e-12)


def test_sample_time_cut_selects_last_qualifying_count():
    lp = np.log(np.array([0.9, 0.05, 0.04, 1e-9, 0.01 - 1e-9]))
    dist = PhotonNumberDist(lp, eta=0.5)
    model = CostModel(c=1.0, r_squared=1.0, machine_label="x")
    _, n_cut = sample_time_estimate(dist, model, overhead=1.0, p_min=1e-3)
    assert n_cut == 4                       # count 3 is below threshold, 4 above
    _, n_cut = sample_time_estimate(dist, model, overhead=1.0, p_min=2e-2)
    assert n_cut == 2


def test_sample_time_rejects_bad_inputs():
    model = CostModel(c=1.0, r_squared=1.0, machine_label="x")
    dist = _point_mass_at_zero()
    with pytest.raises(ContractViolationError):
        sample_time_estimate(dist, model, overhead=0.5, p_min=1e-7)
    with pytest.raises(ContractViolationError):
        sample_time_estimate(dist, model, overhead=10.0, p_min=0.0)


def test_residual_trend_pvalue():
    flat = np.array([0.1, -0.2, 0.05, -0.1, 0.15, -0.05, 0.0, 0.1])
    trend = np.linspace(-1.0, 1.0, 8)
    assert residual_trend_pvalue(trend) < 0.15
    assert residual_trend_pvalue(flat) > 0.3
    assert residual_trend_pvalue(np.zeros(6)) == 1.0


def test_residual_trend_pvalue_floor_at_eleven_sizes():
    # 11 residuals pair into 5 signs: the smallest two-sided p is 2^(1-5)
    assert residual_trend_pvalue(np.arange(11.0)) == 0.0625


def test_fit_residuals_are_centered():
    model = fit_cost_model(_synthetic_records(1e-10, range(16, 34, 2)))
    res = fit_residuals(_synthetic_records(1e-10, range(16, 34, 2)), model)
    assert np.abs(res).max() < 1e-12


def test_bench_record_validation():
    with pytest.raises(ContractViolationError):
        BenchRecord(n=16, wall_seconds=0.0, reps=3, threads=1)
    with pytest.raises(ContractViolationError):
        BenchRecord(n=15, wall_seconds=1.0, reps=3, threads=1)
