"""Every count a public routine takes goes through ``matrices._integer``: a
float, a bool or a count below the routine's minimum is a contract
violation, raised before the benchmark clock is read once. A seed is an
integer too: every draw refuses a bool seed rather than reading it as 1."""
import time

import numpy as np
import pytest

from hdgbs.bench import BenchRecord, bench_hafnian
from hdgbs.circuit import build_instance
from hdgbs.errors import ContractViolationError
from hdgbs.focknet import build_network, contraction_cost
from hdgbs.hafnian import hafnian_fast
from hdgbs.hiding import (EnsembleSpec, hiding_scan, pooled_singular_values,
                          sample_ensemble, shared_edges, split_half_tv)
from hdgbs.matrices import as_rng, ginibre, haar_isometry, haar_unitary, random_symmetric
from hdgbs.probability import exact_sample

_SPEC = EnsembleSpec("gaussian", m=9, n=2, k=3)
_PAIRS = [(_SPEC, EnsembleSpec("gaussian_sym", m=9, n=2, k=3))]
_POOL = np.array([0.2, 0.7])
_B = np.ones((4, 4))

BAD_COUNTS = {
    "pooled-float-samples": lambda: pooled_singular_values(_SPEC, 2.0, 0),
    "split-half-float-samples": lambda: split_half_tv(_SPEC, 3.0, 4, 0),
    "scan-float-samples": lambda: hiding_scan(_PAIRS, 2.0, 4, 0),
    "edges-float-bins": lambda: shared_edges(_POOL, _POOL, 2.5),
    "bench-float-reps": lambda: bench_hafnian([4], 2.5, 0),
    "bench-float-size": lambda: bench_hafnian([4.0], 1, 0),
    "ginibre-float-rows": lambda: ginibre(2.5, 2, 1.0, 0),
    "haar-unitary-float": lambda: haar_unitary(2.5, 0),
    "haar-unitary-bool": lambda: haar_unitary(True, 0),
    "haar-isometry-float-columns": lambda: haar_isometry(3, 1.5, 0),
    "random-symmetric-float": lambda: random_symmetric(2.5, 0),
    "random-symmetric-bool": lambda: random_symmetric(True, 0),
    "random-symmetric-negative": lambda: random_symmetric(-1, 0),
    "pooled-bool-samples": lambda: pooled_singular_values(_SPEC, True, 0),
    "edges-bool-bins": lambda: shared_edges(_POOL, _POOL, True),
    "record-float-reps": lambda: BenchRecord(4, 1.0, 1.5, 1),
    "hafnian-zero-workers": lambda: hafnian_fast(_B, workers=0),
    "hafnian-negative-workers": lambda: hafnian_fast(_B, workers=-1),
    "hafnian-float-workers": lambda: hafnian_fast(_B, workers=2.5),
    "bench-zero-workers": lambda: bench_hafnian([4], 1, 0, workers=0),
    "bench-float-seed": lambda: bench_hafnian([4], 1, 2.7),
    "bench-bool-seed": lambda: bench_hafnian([4], 1, True),
    "bench-negative-seed": lambda: bench_hafnian([4], 1, -1),
}

_INSTANCE = build_instance(0.3, 2, 1, 1, 0)

# one call per public entry point that draws from a caller's seed
BOOL_SEEDS = {
    "as-rng": as_rng,
    "ginibre": lambda seed: ginibre(2, 2, 1.0, seed),
    "haar-unitary": lambda seed: haar_unitary(2, seed),
    "sample-ensemble": lambda seed: sample_ensemble(_SPEC, seed),
    "hiding-scan": lambda seed: hiding_scan(_PAIRS, 2, 4, seed),
    "exact-sample": lambda seed: exact_sample(_INSTANCE, 2, 3, seed),
    "contraction-cost": lambda seed: contraction_cost(
        build_network(_INSTANCE, 2, [0, 0]), 1, seed),
}


@pytest.mark.parametrize("call", BAD_COUNTS.values(), ids=BAD_COUNTS.keys())
def test_bad_count_is_refused_before_any_timing(monkeypatch, call):
    reads = []
    clock = time.perf_counter

    def counted():
        reads.append(None)
        return clock()

    monkeypatch.setattr(time, "perf_counter", counted)
    with pytest.raises(ContractViolationError):
        call()
    assert not reads


@pytest.mark.parametrize("call", BOOL_SEEDS.values(), ids=BOOL_SEEDS.keys())
def test_bool_seed_is_refused(call):
    call(1)
    call(np.int64(1))
    for seed in (True, False):
        with pytest.raises(ContractViolationError, match="bool"):
            call(seed)


def test_integer_seeds_draw_as_before():
    draw = ginibre(3, 2, 1.0, 7)
    assert np.array_equal(ginibre(3, 2, 1.0, np.int64(7)), draw)
    assert np.array_equal(ginibre(3, 2, 1.0, np.random.SeedSequence(7)), draw)


def test_ensemble_spec_stores_the_ints_it_checked():
    spec = EnsembleSpec("gaussian", np.int64(200), np.int64(10), np.int64(20))
    assert [(type(v), v) for v in (spec.m, spec.n, spec.k)] == [(int, 200), (int, 10),
                                                                (int, 20)]
    with pytest.raises(ContractViolationError, match="M must be an integer, got True"):
        EnsembleSpec("gaussian", True, 1, 1)
