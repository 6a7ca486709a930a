"""Tests of the benchmark's own checks and references.

Each check must accept a correct value and reject a deliberately perturbed
one. Run from the repository root:

    python3 -m pytest -q benchmark/test_checks.py
"""

import itertools
import math
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import reference  # noqa: E402
from checks import CheckFailed  # noqa: E402


def _gint_matrix(rng, n):
    return [[(int(rng.integers(-3, 4)), int(rng.integers(-3, 4))) for _ in range(n)]
            for _ in range(n)]


def _brute_permanent(g):
    n = len(g)
    return sum(math.prod(complex(*g[i][p[i]]) for i in range(n))
               for p in itertools.permutations(range(n)))


def _brute_hafnian(b):
    def match(idx):
        if not idx:
            return 1
        return sum(b[idx[0]][idx[t]] * match(idx[1:t] + idx[t + 1:])
                   for t in range(1, len(idx)))
    return match(tuple(range(len(b))))


# --- references -------------------------------------------------------------------

def test_gaussian_int_permanent_matches_permutation_sum():
    rng = np.random.default_rng(0)
    for n in range(0, 7):
        g = _gint_matrix(rng, n)
        assert reference.as_complex(reference.gaussian_int_permanent(g)) == _brute_permanent(g)


def test_rank_two_hafnian_matches_matching_sum():
    rng = np.random.default_rng(1)
    for n in (2, 4, 6, 8):
        u = [tuple(int(x) for x in rng.integers(-2, 3, 2)) for _ in range(n)]
        w = [tuple(int(x) for x in rng.integers(-2, 3, 2)) for _ in range(n)]
        uc = [complex(*x) for x in u]
        wc = [complex(*x) for x in w]
        b = [[uc[i] * uc[j] + wc[i] * wc[j] for j in range(n)] for i in range(n)]
        assert reference.as_complex(reference.hafnian_rank_two(u, w)) == _brute_hafnian(b)
    # rank one: (n-1)!! prod u_i
    u = [(1, 1), (2, 0), (0, -1), (3, 1)]
    prod = math.prod(complex(*x) for x in u)
    assert reference.as_complex(reference.hafnian_rank_two(u, [(0, 0)] * 4)) == 3 * prod


def test_laws_and_moments_agree():
    law = reference.lossless_total_law(216, 0.8, 1200)
    assert abs(law.sum() - 1.0) < 1e-12
    thinned = reference.thinned_total_law(216, 0.8, 0.5, 400)
    assert abs(thinned.sum() - 1.0) < 1e-12
    n = np.arange(401)
    mean, var = reference.photon_moments(216, 0.8, 0.5)
    assert abs(n @ thinned - mean) < 1e-9 * mean
    assert abs(((n - mean) ** 2) @ thinned - var) < 1e-8 * var


def test_sample_cost_reference_reproduces_literals():
    probs = reference.thinned_total_law(**{k: reference.SAMPLE_COST_POINT[k]
                                           for k in ("modes", "r", "eta", "n_max")})
    seconds, n_cut = reference.sample_cost(probs, reference.NIAGARA_C_S / reference.RMAX_RATIO,
                                           reference.SAMPLE_COST_POINT["overhead"],
                                           reference.SAMPLE_COST_POINT["p_min"])
    assert n_cut == reference.SAMPLE_COST_N_CUT
    assert abs(seconds / reference.SAMPLE_COST_SECONDS - 1.0) < 1e-12


def test_light_cone_and_gate_count():
    assert reference.gate_count(6, 3, 1) == 605
    assert reference.light_cone_band(6, 3, 1) == 43
    assert reference.gate_count(2, 2, 3) == 15


# --- generic checks -------------------------------------------------------------------

def test_close_and_identical():
    checks.close("x", 1.0 + 1e-13, 1.0, 1e-12)
    with pytest.raises(CheckFailed):
        checks.close("x", 1.0 + 1e-11, 1.0, 1e-12)
    a = np.arange(4.0)
    checks.identical("a", a, a.copy())
    with pytest.raises(CheckFailed):
        checks.identical("a", a, np.nextafter(a, 5.0))
    with pytest.raises(CheckFailed):
        checks.identical("pair", (1, 2), (1, 3))


# --- hafnian-sweep -------------------------------------------------------------------

def test_exact_value():
    exact = (123456789, -987654321)
    got = complex(*exact)
    checks.exact_value("v", got, exact, rel=1e-12)
    with pytest.raises(CheckFailed):
        checks.exact_value("v", got * (1 + 1e-8), exact, rel=1e-10)


def test_permutation_invariant():
    checks.permutation_invariant("h", 2.0 + 1j, (2.0 + 1j) * (1 + 1e-9), rel=1e-6)
    with pytest.raises(CheckFailed):
        checks.permutation_invariant("h", 2.0 + 1j, (2.0 + 1j) * (1 + 1e-4), rel=1e-6)


def test_cost_fit():
    sizes = list(range(16, 30, 2))
    rng = np.random.default_rng(2)
    times = [7e-9 * n ** 3 * 2 ** (n / 2) * math.exp(rng.normal(0, 0.1)) for n in sizes]
    c = math.exp(np.mean([math.log(t / (n ** 3 * 2 ** (n / 2))) for n, t in zip(sizes, times)]))
    checks.cost_fit(c, sizes, times)
    with pytest.raises(CheckFailed):
        checks.cost_fit(c * (1 + 1e-9), sizes, times)


# --- cli-pipeline ---------------------------------------------------------------------

def _mat(a):
    a = np.asarray(a, dtype=complex)
    return {"rows": a.shape[0], "cols": a.shape[1],
            "re": a.real.ravel().tolist(), "im": a.imag.ravel().tolist()}


def _instance(a=2, dim=2, seed=3):
    """A delay-line instance built here from random 2 x 2 unitaries."""
    rng = np.random.default_rng(seed)
    m = a ** dim
    u = np.eye(m, dtype=complex)
    gates = []
    for d in range(dim):
        tau = a ** d
        for i in range(m - tau):
            z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            v, _ = np.linalg.qr(z)
            u[[i, i + tau], :] = v @ u[[i, i + tau], :]
            gates.append({"i": i, "j": i + tau, "v": _mat(v)})
    return {"r": 0.3, "a": a, "D": dim, "C": 1, "seed": seed,
            "unitary": _mat(u), "gates": gates}


def test_instance_file_accepts_consistent_instance():
    checks.instance_file(_instance())
    checks.instance_file(_instance(a=3, dim=2))


def test_instance_file_rejects_swapped_gate():
    obj = _instance()
    obj["gates"][0]["v"] = _mat([[0, 1], [1, 0]])
    with pytest.raises(CheckFailed, match="product of its gates"):
        checks.instance_file(obj)


def test_instance_file_rejects_wrong_gate_count_and_non_unitary():
    obj = _instance()
    obj["gates"].pop()
    with pytest.raises(CheckFailed, match="gates"):
        checks.instance_file(obj)
    obj = _instance()
    obj["unitary"]["re"][0] += 1e-6
    with pytest.raises(CheckFailed, match="defect"):
        checks.instance_file(obj)


def test_instance_file_rejects_mass_beyond_light_cone():
    obj = _instance(a=3, dim=2)
    m = 9
    band = reference.light_cone_band(3, 2, 1)
    u = (np.array(obj["unitary"]["re"]) + 1j * np.array(obj["unitary"]["im"])).reshape(m, m)
    # a permutation of rows keeps the matrix unitary but moves mass outside the band
    obj["unitary"] = _mat(u[::-1])
    assert np.any(np.triu(np.abs(u[::-1]), k=band + 1) > 0)
    with pytest.raises(CheckFailed):
        checks.instance_file(obj)


def _sequential_plan(label_sets, cutoff):
    """Contract tensor 0 with its first neighbour, again and again; the
    plan and its cost computed here by hand."""
    alive = dict(enumerate(label_sets))
    next_id = len(label_sets)
    order, flops = [], 0.0
    max_elems = max(float(cutoff) ** len(s) for s in label_sets)
    cur = 0
    while len(alive) > 1:
        other = next((i for i, s in alive.items() if i != cur and s & alive[cur]),
                     next(i for i in alive if i != cur))
        a, b = alive.pop(cur), alive.pop(other)
        flops += float(cutoff) ** len(a | b)
        max_elems = max(max_elems, float(cutoff) ** len(a ^ b))
        order.append([cur, other])
        alive[next_id] = a ^ b
        cur = next_id
        next_id += 1
    return {"est_flops": flops, "max_tensor_elems": max_elems, "order": order}


def test_plan_replay():
    sets = checks.network_label_sets(_instance())
    assert len(sets) == 4 + 5 + 4
    plan = _sequential_plan(sets, 4)
    checks.plan_replay(plan, sets, 4)
    with pytest.raises(CheckFailed, match="est_flops"):
        checks.plan_replay(dict(plan, est_flops=plan["est_flops"] * (1 + 1e-9)), sets, 4)
    with pytest.raises(CheckFailed, match="scalar"):
        checks.plan_replay(dict(plan, order=plan["order"][:-1]), sets, 4)
    bad = [list(s) for s in plan["order"]]
    bad[1] = [bad[0][0], bad[1][1]]            # reuses a contracted tensor
    with pytest.raises(CheckFailed, match="not alive"):
        checks.plan_replay(dict(plan, order=bad), sets, 4)


def test_photondist():
    law = reference.thinned_total_law(216, 0.8, 0.5, 400)
    lp = np.log(law)
    checks.photondist(lp, lp.copy(), 216, 0.8, 0.5)
    bad = lp.copy()
    bad[170] += 1e-8
    with pytest.raises(CheckFailed):
        checks.photondist(bad, lp, 216, 0.8, 0.5)
    with pytest.raises(CheckFailed):
        checks.photondist(lp, bad, 216, 0.8, 0.5)


def test_extrapolated_model_and_sample_cost():
    checks.extrapolated_model({"c": 5.42e-15 / 122.8})
    with pytest.raises(CheckFailed):
        checks.extrapolated_model({"c": 5.42e-15 / 122.7})
    good = {"seconds": 207010012052.4542, "n_cut": 166}
    checks.sample_cost(good)
    with pytest.raises(CheckFailed):
        checks.sample_cost(dict(good, n_cut=165))
    with pytest.raises(CheckFailed):
        checks.sample_cost(dict(good, seconds=good["seconds"] * (1 + 1e-7)))


def test_prob_matches_amplitude():
    amp = 0.00497274000871108 - 0.00021437913531845805j
    checks.prob_matches_amplitude(2.4774101607895895e-05, amp)
    with pytest.raises(CheckFailed):
        checks.prob_matches_amplitude(5.46e-4, amp)


def test_total_count_sums_and_truncated_mass():
    law = reference.lossless_total_law(9, 0.4, 6)
    checks.total_count_sums(list(law), 9, 0.4)
    bad = list(law)
    bad[4] *= 1 + 1e-9
    with pytest.raises(CheckFailed):
        checks.total_count_sums(bad, 9, 0.4)
    bad = list(law)
    bad[3] = 1e-12                             # odd totals carry no mass
    with pytest.raises(CheckFailed):
        checks.total_count_sums(bad, 9, 0.4)
    truncated = 1.0 - math.fsum(law)
    checks.truncated_mass(truncated, 9, 0.4, 6)
    with pytest.raises(CheckFailed):
        checks.truncated_mass(truncated + 1e-10, 9, 0.4, 6)


def test_samples():
    good = [(0,) * 9, (2,) + (0,) * 8, (1, 1, 0, 0, 0, 0, 1, 1, 2)]
    checks.samples(good, 9, 6, 3)
    for bad in ((1,) + (0,) * 8, (4, 4) + (0,) * 7, (0,) * 8, (-1, 1) + (0,) * 7):
        with pytest.raises(CheckFailed):
            checks.samples(good[:2] + [bad], 9, 6, 3)
    with pytest.raises(CheckFailed):
        checks.samples(good, 9, 6, 4)


# --- hiding-ensembles -------------------------------------------------------------------

def test_sub_singular_values():
    checks.sub_singular_values(np.array([0.2, 1.0, 1.0 + 4e-16]))
    with pytest.raises(CheckFailed):
        checks.sub_singular_values(np.array([0.2, 1.0 + 1e-9]))


def test_gaussian_frobenius():
    m, n, k, draws = 200, 10, 200, 40
    rng = np.random.default_rng(4)
    vals = []
    for _ in range(draws):
        x = (rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))) / math.sqrt(2 * m)
        vals.append(np.linalg.svd(x, compute_uv=False))
    vals = np.concatenate(vals)
    checks.gaussian_frobenius(vals, m, n, k, draws)
    with pytest.raises(CheckFailed):
        checks.gaussian_frobenius(vals * 1.05, m, n, k, draws)


def test_masses_and_tv_floor():
    checks.masses_sum_to_one(np.array([0.25, 0.75]))
    with pytest.raises(CheckFailed):
        checks.masses_sum_to_one(np.array([0.25, 0.75 + 1e-9]))
    checks.tv_below_floor(0.29, 0.1)
    with pytest.raises(CheckFailed):
        checks.tv_below_floor(0.31, 0.1)


def test_split_half_tv():
    # draws 0 and 2 form one half, draws 1 and 3 the other: disjoint bins
    pool = np.array([0.1, 0.9, 0.1, 0.9])
    checks.split_half_tv(1.0, pool, 4, 2)
    with pytest.raises(CheckFailed):
        checks.split_half_tv(0.5, pool, 4, 2)
    checks.split_half_tv(0.0, np.array([0.1, 0.1, 0.9, 0.9]), 4, 2)
