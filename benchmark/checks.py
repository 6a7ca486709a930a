"""Output checks of the benchmark.

Each check compares a program output with a second derivation (from
``reference``, or recomputed here with numpy) or with a property the
method must have. A check returns None when the output passes and raises
``CheckFailed`` with a message otherwise. Nothing here imports hdgbs.
"""

import math

import numpy as np

import reference


class CheckFailed(AssertionError):
    """A program output disagrees with its independent reference."""


def _fail(msg: str):
    raise CheckFailed(msg)


def close(what: str, got, want, rel: float, abs_tol: float = 0.0) -> None:
    """|got - want| <= max(abs_tol, rel * |want|), for real or complex values."""
    err = abs(complex(got) - complex(want))
    if not err <= max(abs_tol, rel * abs(complex(want))):
        _fail(f"{what}: got {got!r}, want {want!r} (error {err:.3e})")


def identical(what: str, a, b) -> None:
    """Bit-for-bit equality (arrays, numbers, bytes or nested lists)."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        same = (np.shape(a) == np.shape(b)
                and np.asarray(a).tobytes() == np.asarray(b).tobytes())
    else:
        same = a == b
    if not same:
        _fail(f"{what}: results differ where they must be bit-identical")


# --- hafnian-sweep -------------------------------------------------------------

def exact_value(what: str, got, exact_pair, rel: float) -> None:
    """A floating result against an exact Gaussian integer."""
    close(what, got, reference.as_complex(exact_pair), rel)


def permutation_invariant(what: str, h, h_perm, rel: float) -> None:
    """Haf(P B P^T) = Haf(B) for any simultaneous row/column permutation."""
    close(what, h_perm, h, rel)


def cost_fit(c_program: float, sizes, seconds, rel: float = 1e-12) -> None:
    """The fitted constant against an own slope-1 least squares:
    log c = mean(log t - log(n^3 2^(n/2)))."""
    logs = [math.log(t) - 3.0 * math.log(n) - (n / 2.0) * math.log(2.0)
            for n, t in zip(sizes, seconds)]
    close("fitted cost constant c", c_program, math.exp(math.fsum(logs) / len(logs)), rel)


# --- cli-pipeline --------------------------------------------------------------

def _matrix(obj) -> np.ndarray:
    rows, cols = obj["rows"], obj["cols"]
    return (np.array(obj["re"], dtype=float)
            + 1j * np.array(obj["im"], dtype=float)).reshape(rows, cols)


def instance_file(obj: dict, tol: float = 1e-10) -> None:
    """An instance JSON: gate count, a unitary that is unitary, zero
    beyond the light-cone band and equal to the ordered product of its
    gates."""
    a, dim, cycles = obj["a"], obj["D"], obj["C"]
    modes = a ** dim
    want = reference.gate_count(a, dim, cycles)
    if len(obj["gates"]) != want:
        _fail(f"instance has {len(obj['gates'])} gates, want {want}")
    u = _matrix(obj["unitary"])
    if u.shape != (modes, modes):
        _fail(f"unitary has shape {u.shape}, want {(modes, modes)}")
    defect = float(np.max(np.abs(u @ u.conj().T - np.eye(modes))))
    if defect > tol:
        _fail(f"unitary defect {defect:.3e} > {tol:.1e}")
    band = reference.light_cone_band(a, dim, cycles)
    outside = np.triu(np.ones((modes, modes), dtype=bool), k=band + 1)
    if np.any(u[outside] != 0):
        _fail(f"unitary is non-zero beyond the light-cone band {band}")
    prod = np.eye(modes, dtype=complex)
    for g in obj["gates"]:
        i, j = g["i"], g["j"]
        prod[[i, j], :] = _matrix(g["v"]) @ prod[[i, j], :]
    gap = float(np.max(np.abs(prod - u)))
    if gap > tol:
        _fail(f"stored unitary differs from the product of its gates by {gap:.3e}")


def network_label_sets(obj: dict) -> list[frozenset]:
    """Label sets of the closed amplitude network of an instance, in
    tensor-id order: one squeezer per mode, one beam-splitter per gate in
    gate order (two fresh output wires, two input wires), then one
    basis vector closing each output wire."""
    modes = obj["a"] ** obj["D"]
    wire = [(q, 0) for q in range(modes)]
    sets = [frozenset([wire[q]]) for q in range(modes)]
    for g in obj["gates"]:
        i, j = g["i"], g["j"]
        new_i, new_j = (i, wire[i][1] + 1), (j, wire[j][1] + 1)
        sets.append(frozenset([new_i, new_j, wire[i], wire[j]]))
        wire[i], wire[j] = new_i, new_j
    sets.extend(frozenset([wire[q]]) for q in range(modes))
    return sets


def plan_replay(plan: dict, label_sets, cutoff: int, rel: float = 1e-12) -> None:
    """The plan contracts every tensor exactly once down to a scalar, and
    its est_flops / max_tensor_elems match a recount over the label sets
    (one multiply-add per element of each step's index union)."""
    alive = dict(enumerate(label_sets))
    next_id = len(label_sets)
    flops = 0.0
    max_elems = max(float(cutoff) ** len(s) for s in label_sets)
    for ia, ib in plan["order"]:
        if ia not in alive or ib not in alive or ia == ib:
            _fail(f"plan step ({ia}, {ib}) names a tensor that is not alive")
        sa, sb = alive.pop(ia), alive.pop(ib)
        flops += float(cutoff) ** len(sa | sb)
        out = sa ^ sb
        max_elems = max(max_elems, float(cutoff) ** len(out))
        alive[next_id] = out
        next_id += 1
    if len(alive) != 1 or next(iter(alive.values())):
        _fail("plan does not contract the network to a scalar")
    close("plan est_flops", plan["est_flops"], flops, rel)
    close("plan max_tensor_elems", plan["max_tensor_elems"], max_elems, rel)


def photondist(closed_lp, conv_lp, modes: int, r: float, eta: float,
               rel: float = 1e-10) -> None:
    """Both routes agree per count, match the thinned lossless law, and
    give the closed-form mean and variance."""
    closed_p, conv_p = np.exp(closed_lp), np.exp(conv_lp)
    n_max = len(closed_p) - 1
    if len(conv_p) != n_max + 1:
        _fail("photondist routes have different lengths")
    want = reference.thinned_total_law(modes, r, eta, n_max)
    for label, got in (("closed", closed_p), ("conv", conv_p)):
        err = np.abs(got - want) / want
        if not np.all(err <= rel):
            n = int(np.argmax(err))
            _fail(f"photondist {label} at n={n}: {got[n]!r} vs thinned law {want[n]!r}")
    err = np.abs(closed_p - conv_p) / np.maximum(closed_p, conv_p)
    if not np.all(err <= rel):
        _fail(f"photondist routes disagree at n={int(np.argmax(err))}")
    mean, var = reference.photon_moments(modes, r, eta)
    n = np.arange(n_max + 1)
    for label, p in (("closed", closed_p), ("conv", conv_p)):
        mu = float(n @ p)
        close(f"photondist {label} mean", mu, mean, rel)
        close(f"photondist {label} variance", float(((n - mu) ** 2) @ p), var, 1e-8)


def extrapolated_model(obj: dict) -> None:
    close("extrapolated c", obj["c"], reference.NIAGARA_C_S / reference.RMAX_RATIO, 1e-15)


def sample_cost(obj: dict, rel: float = 1e-9) -> None:
    """sample-cost output against the mpmath literals."""
    if obj["n_cut"] != reference.SAMPLE_COST_N_CUT:
        _fail(f"sample-cost n_cut {obj['n_cut']}, want {reference.SAMPLE_COST_N_CUT}")
    close("sample-cost seconds", obj["seconds"], reference.SAMPLE_COST_SECONDS, rel)


def prob_matches_amplitude(prob: float, amp: complex, rel: float = 1e-9) -> None:
    """prob (Hafnian of the unitary's adjacency) = |amp|^2 (tensor network
    of the gates)."""
    close("prob vs |amplitude|^2", prob, abs(amp) ** 2, rel)


def total_count_sums(sums, modes: int, r: float, rel: float = 1e-12,
                     abs_tol: float = 1e-16) -> None:
    """Enumerated outcome probabilities summed per total n against the
    lossless law C(M/2 + k - 1, k) sech^M r tanh^(2k) r."""
    want = reference.lossless_total_law(modes, r, len(sums) - 1)
    for n, (got, w) in enumerate(zip(sums, want)):
        close(f"probability mass at total {n}", got, w, rel, abs_tol)


def truncated_mass(got: float, modes: int, r: float, n_max: int) -> None:
    want = 1.0 - math.fsum(reference.lossless_total_law(modes, r, n_max))
    close("exact_sample truncated mass", got, want, 0.0, 1e-13)


def samples(draws, modes: int, n_max: int, count: int) -> None:
    """Every drawn pattern has the right length, non-negative entries and
    an even total of at most n_max (odd totals have zero probability)."""
    if len(draws) != count:
        _fail(f"{len(draws)} samples, want {count}")
    for p in draws:
        if len(p) != modes or min(p) < 0 or sum(p) > n_max or sum(p) % 2:
            _fail(f"impossible sample {p}")


# --- hiding-ensembles ------------------------------------------------------------

def sub_singular_values(values, tol: float = 1e-12) -> None:
    """Blocks of a unitary have operator norm at most 1."""
    top = float(np.max(values))
    if top > 1.0 + tol or float(np.min(values)) < 0.0:
        _fail(f"sub-block singular value outside [0, 1]: max {top!r}")


def gaussian_frobenius(values, m: int, n: int, k: int, draws: int,
                       sigmas: float = 6.0) -> None:
    """Mean squared Frobenius norm of a Gaussian draw is N K / M. Each of
    the N K entries has |x|^2 exponential with mean 1/M, so the mean over
    the draws has standard error sqrt(N K) / (M sqrt(draws))."""
    per_draw = (np.asarray(values) ** 2).reshape(draws, -1).sum(axis=1)
    want = n * k / m
    err = math.sqrt(n * k) / (m * math.sqrt(draws))
    got = float(per_draw.mean())
    if abs(got - want) > sigmas * err:
        _fail(f"Gaussian mean |X|_F^2 {got:.5f}, want {want:.5f} +/- {sigmas:g} x {err:.5f}")


def masses_sum_to_one(masses, tol: float = 1e-12) -> None:
    total = float(np.sum(masses))
    if abs(total - 1.0) > tol or float(np.min(masses)) < 0.0:
        _fail(f"histogram masses sum to {total!r}")


def tv_below_floor(tv: float, floor: float, factor: float = 3.0) -> None:
    if not tv < factor * floor:
        _fail(f"TV {tv:.4f} not below {factor:g} x split-half floor {floor:.4f}")


def split_half_tv(got: float, pool, draws: int, bins: int) -> None:
    """The split-half TV of a pool, recomputed with numpy: interleaved
    halves of the draws, binned on [0, max] and compared in L1 / 2."""
    rows = np.asarray(pool).reshape(draws, -1)
    first, second = rows[0::2].ravel(), rows[1::2].ravel()
    top = max(float(first.max()), float(second.max()))
    edges = np.linspace(0.0, np.nextafter(top, np.inf), bins + 1)
    ha = np.histogram(first, bins=edges)[0] / first.size
    hb = np.histogram(second, bins=edges)[0] / second.size
    close("split-half TV", got, 0.5 * float(np.abs(ha - hb).sum()), 1e-12, 1e-15)
