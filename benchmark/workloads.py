"""The benchmark's three workloads.

Each workload builds its inputs from the seed (off the clock), runs a
fixed list of operations once per pass, checks the outputs against
``checks``, and reports its metrics. Every pass runs the same operations
on the same inputs, so a run always attempts whole rounds of them. An
operation that raised is counted as failed by the recorder; its output is
FAILED and the checks skip it. Calls go through module attributes
(``hafnian.hafnian_fast``, not a local alias) so that the tracer's
wrappers are reached when tracing is on.
"""

import hashlib
import itertools
import json
import os
import statistics

import numpy as np

import checks
import reference
from hdgbs import bench, circuit, cli, hafnian, hiding, probability
from spans import FAILED


class Workload:
    name = ""
    probe = ""          # code a fresh interpreter runs to measure setup_s

    def __init__(self, seed: int, workdir: str):
        """Build the inputs from ``seed``; ``workdir`` takes --out files."""
        self.passes = 0

    def run_pass(self, rec) -> None:
        raise NotImplementedError

    def after_pass(self) -> None:
        """Off-clock bookkeeping after each pass."""

    def finish(self, rec) -> None:
        """Operations that run once, after the last pass."""

    def check(self, rec) -> None:
        raise NotImplementedError

    def per_layer(self, table) -> dict:
        """The per-layer metrics of the calls only this workload makes; the
        runner adds ``common_per_layer`` and reports 0 for the rest."""
        raise NotImplementedError


# every hdgbs layer whose self time the traced run reports
LAYERS = ("hafnian", "probability", "circuit", "focknet", "hiding", "matrices", "bench", "cli")


def common_per_layer(table) -> dict:
    """Per-layer metrics defined the same way on every workload: each
    layer's self time per pass and the counts of its busiest functions,
    0 where the workload does not reach them."""
    out = {f"{layer}.self_s": (table.layer_per_pass(layer), "s") for layer in LAYERS}
    for metric, fn in (("hafnian.fast.calls", "hafnian.hafnian_fast"),
                       ("hiding.draws", "hiding.sample_ensemble"),
                       ("matrices.haar_isometry.calls", "matrices.haar_isometry")):
        out[metric] = (table.per_pass(fn, value="count"), "count")
    out["matrices.haar_isometry_s"] = (table.per_pass("matrices.haar_isometry", value="self"),
                                       "s")
    return out


def _ints(seed: int, tag: int, count: int) -> list[int]:
    """``count`` seeds for the program, derived from the benchmark seed."""
    return [int(x) for x in np.random.default_rng([seed, tag]).integers(0, 2 ** 31, count)]


def _ok(values) -> list:
    return [v for v in values if v is not FAILED]


def _failed(*values) -> bool:
    return any(v is FAILED for v in values)


def _same_every_pass(what: str, values) -> None:
    values = _ok(values)
    for v in values[1:]:
        checks.identical(what, values[0], v)


# --- hafnian-sweep --------------------------------------------------------------

# Relative tolerances, each well above the largest error measured on
# correct code (README, "Checks") and far below what a wrong result gives.
PERMUTED_REL = 1e-6       # dense n = 16..28: worst seen 6.1e-9 (n = 28)
RYSER_REL = 1e-10         # 12 x 12 Ryser: worst seen 1.1e-12
BLOCK_REL = 1e-8          # 24 x 24 block-identity Hafnian: worst seen 2.8e-10
LOW_RANK_REL = 1e-9       # n = 22 rank two: seen 9e-13


class HafnianSweep(Workload):
    """Serial hafnian_fast at every even n from 16 to 28, the 2-worker call
    at the top size, Ryser and block-identity permanents, a low-rank
    Hafnian, and the cost-model fit."""

    name = "hafnian-sweep"
    SIZES = tuple(range(16, 30, 2))
    TOP = 28
    PERM_N = 12
    LOW_RANK_N = 22
    probe = ("import numpy as np; from hdgbs import bench, hafnian; "
             "hafnian.hafnian_fast(np.ones((2, 2))); hafnian.permanent(np.ones((1, 1))); "
             "hafnian.permanent_via_hafnian(np.ones((1, 1))); "
             "bench.fit_cost_model([bench.BenchRecord(n, 1e-3 * n, 1, 1) "
             "for n in (2, 6, 10, 14)])")

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        rng = np.random.default_rng([seed, 1])
        # dense complex symmetric B = X + X^T, and P B P^T for a random P;
        # passes alternate between the two, so every pass costs the same
        self.inputs = {}
        for n in self.SIZES:
            x = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / 2
            b = x + x.T
            p = rng.permutation(n)
            self.inputs[n] = (b, b[np.ix_(p, p)])
        # Gaussian-integer entries with positive real part, so the permanent
        # and the low-rank Hafnian are far from zero and a relative check is
        # sharp (a zero row would make the exact value 0)
        self.g_pairs = [[(int(rng.integers(1, 4)), int(rng.integers(-1, 2)))
                         for _ in range(self.PERM_N)] for _ in range(self.PERM_N)]
        self.g = np.array([[complex(*e) for e in row] for row in self.g_pairs])
        self.u, self.w = ([(int(rng.integers(1, 3)), int(rng.integers(-1, 2)))
                           for _ in range(self.LOW_RANK_N)] for _ in range(2))
        u, w = (np.array([complex(*e) for e in v]) for v in (self.u, self.w))
        self.low_rank = np.outer(u, u) + np.outer(w, w)
        self.results = {(n, v): [] for n in self.SIZES for v in (0, 1)}
        self.out = {"w2": [], "perm": [], "pvh": [], "low_rank": [], "fit": []}
        self.model = None

    def run_pass(self, rec):
        variant = self.passes % 2
        times = {}
        for n in self.SIZES:
            h = rec.op(f"haf.n{n}", hafnian.hafnian_fast, self.inputs[n][variant])
            self.results[n, variant].append(h)
            if h is not FAILED:
                times[n] = rec.times[f"haf.n{n}"][-1]
        self.out["w2"].append(rec.op("haf.w2", hafnian.hafnian_fast,
                                     self.inputs[self.TOP][0], workers=2))
        self.out["perm"].append(rec.op("perm", hafnian.permanent, self.g))
        self.out["pvh"].append(rec.op("perm_via_haf", hafnian.permanent_via_hafnian, self.g))
        self.out["low_rank"].append(rec.op("haf.low_rank", hafnian.hafnian_fast,
                                           self.low_rank))
        if len(times) == len(self.SIZES):
            records = [bench.BenchRecord(n, times[n], 1, 1) for n in self.SIZES]
            self.out["fit"].append((times, rec.op("fit", bench.fit_cost_model, records)))
        self.passes += 1

    def finish(self, rec):
        """The cost model on the per-size medians over all passes."""
        if all(rec.times[f"haf.n{n}"] for n in self.SIZES):
            records = [bench.BenchRecord(n, rec.median(f"haf.n{n}"), self.passes, 1)
                       for n in self.SIZES]
            self.model = rec.op("fit.medians", bench.fit_cost_model, records, "desk")

    def check(self, rec):
        for (n, v), vals in self.results.items():
            _same_every_pass(f"hafnian n={n} variant {v}", vals)
        for n in self.SIZES:
            plain, permuted = _ok(self.results[n, 0]), _ok(self.results[n, 1])
            if plain and permuted:
                checks.permutation_invariant(f"hafnian n={n} under P B P^T",
                                             plain[0], permuted[0], rel=PERMUTED_REL)
        serial = _ok(self.results[self.TOP, 0])[:1]
        for h in _ok(self.out["w2"]) if serial else ():
            checks.identical("2-worker vs serial hafnian", h, serial[0])
        exact_perm = reference.gaussian_int_permanent(self.g_pairs)
        for label, rel in (("perm", RYSER_REL), ("pvh", BLOCK_REL)):
            for value in _ok(self.out[label]):
                checks.exact_value(f"{label} of a Gaussian-integer matrix", value,
                                   exact_perm, rel)
        exact_lr = reference.hafnian_rank_two(self.u, self.w)
        for value in _ok(self.out["low_rank"]):
            checks.exact_value("rank-two hafnian", value, exact_lr, LOW_RANK_REL)
        for times, model in self.out["fit"]:
            if model is not FAILED:
                checks.cost_fit(model.c, self.SIZES, [times[n] for n in self.SIZES])
        if self.model is not None and not _failed(self.model):
            checks.cost_fit(self.model.c, self.SIZES,
                            [rec.median(f"haf.n{n}") for n in self.SIZES])

    def per_layer(self, table):
        fast = "hafnian.hafnian_fast"
        out = {f"hafnian.fast.n{n}_s": (table.median_duration(fast, f"haf.n{n}"), "s")
               for n in self.SIZES}
        out["hafnian.w2_speedup"] = (table.median_duration(fast, f"haf.n{self.TOP}")
                                     / table.median_duration(fast, "haf.w2"), "ratio")
        out["bench.cost_c_s"] = (self.model.c, "s")
        out["hafnian.permanent_s"] = (table.median_duration("hafnian.permanent", "perm"), "s")
        out["hafnian.permanent_via_hafnian_s"] = (
            table.median_duration("hafnian.permanent_via_hafnian", "perm_via_haf"), "s")
        return out


# --- cli-pipeline ----------------------------------------------------------------

def _cli(argv):
    """One in-process ``hdgbs`` command; a non-zero exit is a failure."""
    code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"hdgbs {' '.join(argv)} exited with {code}")


class CliPipeline(Workload):
    """The README pipeline through ``hdgbs.cli.main`` with --out files,
    plus exact_sample over every pattern of total <= 6 on 9 modes."""

    name = "cli-pipeline"
    BIG = ("0.8", "6", "3", "1")          # (r, a, D, C): 216 modes, 605 gates
    SMALL = ("0.3", "2", "2", "1")        # 4 modes
    ENUM = (0.4, 3, 2, 1)                 # 9 modes
    ENUM_N_MAX = 6
    ENUM_DRAWS = 1000
    TN_CUTOFF = 4
    TN_TRIALS = 32
    CONTRACT_CUTOFF = 12
    PHOTON = ("216", "0.8", "0.5", "400")
    FILES = ("big.json", "plan.json", "closed.csv", "conv.csv", "scaled.json",
             "cost.json", "small.json", "prob.txt", "amp.txt")
    probe = ("from hdgbs import circuit, cli, focknet, probability; "
             "inst = circuit.build_instance(0.1, 2, 1, 1, 0); "
             "circuit.instance_from_json(circuit.instance_to_json(inst)); "
             "net = focknet.build_network(inst, 2, [0, 0]); "
             "focknet.contract(net, focknet.contraction_cost(net, 1, 0)); "
             "probability.lossy_total_dist_closed(2, 0.1, 0.5, 2); "
             "probability.total_dist_convolution([0.1, 0.1], 0.5, 2); "
             "probability.outcome_probability(circuit.adjacency(inst), [0.1, 0.1], [1, 1]); "
             "cli.build_parser().parse_args(['haf', '--in', 'x'])")

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        big_seed, small_seed, enum_seed, tn_seed, draw_seed, pat_seed = _ints(seed, 2, 6)
        rng = np.random.default_rng(pat_seed)
        while True:
            pattern = [int(x) for x in rng.integers(0, 4, 4)]
            if sum(pattern) % 2 == 0 and 2 <= sum(pattern) <= 6:
                break
        self.path = {f: os.path.join(workdir, f) for f in self.FILES}
        model_path = os.path.join(workdir, "niagara.json")
        with open(model_path, "w") as fh:
            json.dump({"c": reference.NIAGARA_C_S, "r_squared": 1.0,
                       "machine_label": "niagara"}, fh)
        p, pt = self.path, reference.SAMPLE_COST_POINT
        r, a, d, c = self.BIG
        r_s, a_s, d_s, c_s = self.SMALL
        modes, r_p, eta, n_max = self.PHOTON
        self.commands = [
            ("instance_new.big", ["instance", "new", "--r", r, "--a", a, "--D", d, "--C", c,
                                  "--seed", str(big_seed), "--out", p["big.json"]]),
            ("tn_cost", ["tn", "cost", "--instance", p["big.json"],
                         "--cutoff", str(self.TN_CUTOFF), "--trials", str(self.TN_TRIALS),
                         "--seed", str(tn_seed), "--out", p["plan.json"]]),
            ("photondist.closed", ["photondist", "--modes", modes, "--r", r_p, "--eta", eta,
                                   "--nmax", n_max, "--method", "closed",
                                   "--out", p["closed.csv"]]),
            ("photondist.conv", ["photondist", "--modes", modes, "--r", r_p, "--eta", eta,
                                 "--nmax", n_max, "--method", "conv", "--out", p["conv.csv"]]),
            ("bench.extrapolate", ["bench", "extrapolate", "--model", model_path,
                                   "--rmax-ratio", repr(reference.RMAX_RATIO),
                                   "--out", p["scaled.json"]]),
            ("bench.sample_cost", ["bench", "sample-cost", "--dist", p["closed.csv"],
                                   "--model", p["scaled.json"],
                                   "--overhead", repr(pt["overhead"]),
                                   "--p-min", repr(pt["p_min"]), "--out", p["cost.json"]]),
            ("instance_new.small", ["instance", "new", "--r", r_s, "--a", a_s, "--D", d_s,
                                    "--C", c_s, "--seed", str(small_seed),
                                    "--out", p["small.json"]]),
            ("prob", ["prob", "--instance", p["small.json"],
                      "--pattern", ",".join(map(str, pattern)), "--out", p["prob.txt"]]),
            ("tn_contract", ["tn", "contract", "--instance", p["small.json"],
                             "--cutoff", str(self.CONTRACT_CUTOFF),
                             "--pattern", ",".join(map(str, pattern)),
                             "--out", p["amp.txt"]]),
        ]
        r_e, a_e, d_e, c_e = self.ENUM
        self.enum_instance = circuit.build_instance(r_e, a_e, d_e, c_e, enum_seed)
        self.draw_seed = draw_seed
        self.digests = []
        self.samples = []
        self.bytes_written = 0

    def run_pass(self, rec):
        for label, argv in self.commands:
            rec.op(label, _cli, argv)
        self.samples.append(rec.op("exact_sample", probability.exact_sample,
                                   self.enum_instance, self.ENUM_N_MAX, self.ENUM_DRAWS,
                                   self.draw_seed))
        self.passes += 1

    def after_pass(self):
        digest, size = {}, 0
        for name, path in self.path.items():
            if not os.path.exists(path):        # its command failed
                continue
            with open(path, "rb") as fh:
                data = fh.read()
            digest[name] = hashlib.sha256(data).hexdigest()
            size += len(data)
        self.digests.append(digest)
        self.bytes_written = size

    def _read(self, name):
        with open(self.path[name]) as fh:
            return fh.read()

    def _log_probs(self, name):
        lines = self._read(name).splitlines()
        if lines[0] != "n,prob,log_prob":
            raise checks.CheckFailed(f"{name}: unexpected header {lines[0]!r}")
        return np.array([float(line.split(",")[2]) for line in lines[1:]])

    def check(self, rec):
        def produced(*labels):
            return not rec.failed_labels.intersection(labels)

        _same_every_pass("--out file bytes", self.digests)
        _same_every_pass("exact_sample output", self.samples)
        if produced("instance_new.big", "tn_cost"):
            big = json.loads(self._read("big.json"))
            checks.instance_file(big)
            checks.plan_replay(json.loads(self._read("plan.json")),
                               checks.network_label_sets(big), self.TN_CUTOFF)
        if produced("instance_new.small", "prob", "tn_contract"):
            checks.instance_file(json.loads(self._read("small.json")))
            prob = float(self._read("prob.txt"))
            re_, im_, _ = (float(x) for x in self._read("amp.txt").split())
            checks.prob_matches_amplitude(prob, complex(re_, im_))
        if produced("photondist.closed", "photondist.conv"):
            modes, r, eta, _ = self.PHOTON
            checks.photondist(self._log_probs("closed.csv"), self._log_probs("conv.csv"),
                              int(modes), float(r), float(eta))
        if produced("bench.extrapolate", "bench.sample_cost"):
            checks.extrapolated_model(json.loads(self._read("scaled.json")))
            checks.sample_cost(json.loads(self._read("cost.json")))
        if not produced("exact_sample"):
            return
        draws, truncated = self.samples[0]
        inst = self.enum_instance
        checks.samples(draws, inst.modes, self.ENUM_N_MAX, self.ENUM_DRAWS)
        checks.truncated_mass(truncated, inst.modes, inst.r, self.ENUM_N_MAX)
        # the probabilities exact_sample enumerates, summed per total n
        a = circuit.adjacency(inst)
        r_vec = np.full(inst.modes, inst.r)
        sums = [0.0] * (self.ENUM_N_MAX + 1)
        for total in range(self.ENUM_N_MAX + 1):
            for modes in itertools.combinations_with_replacement(range(inst.modes), total):
                pattern = np.bincount(modes, minlength=inst.modes)
                sums[total] += probability.outcome_probability(a, r_vec, pattern)
        checks.total_count_sums(sums, inst.modes, inst.r)

    def per_layer(self, table):
        fast = "hafnian.hafnian_fast"
        plan = json.loads(self._read("plan.json"))
        return {
            "hafnian.fast.small_s": (table.median_duration(fast, "exact_sample"), "s"),
            "probability.outcome_probability_s": (
                table.median_duration("probability.outcome_probability", "exact_sample"), "s"),
            "probability.exact_sample_s": (
                table.median_duration("probability.exact_sample"), "s"),
            "probability.patterns": (
                table.per_pass("probability.outcome_probability", "exact_sample", "count"),
                "count"),
            "probability.lossy_total_dist_closed_s": (
                table.median_duration("probability.lossy_total_dist_closed"), "s"),
            "probability.total_dist_convolution_s": (
                table.median_duration("probability.total_dist_convolution"), "s"),
            "probability.binomial_thinning_matrix_s": (
                table.median_duration("probability.binomial_thinning_matrix"), "s"),
            "circuit.build_instance_s": (
                table.median_duration("circuit.build_instance", "instance_new.big"), "s"),
            "circuit.instance_to_json_s": (
                table.median_duration("circuit.instance_to_json", "instance_new.big"), "s"),
            "circuit.load_instance_s": (
                table.median_duration("circuit.load_instance", "tn_cost"), "s"),
            "circuit.instance_bytes": (os.path.getsize(self.path["big.json"]), "bytes"),
            "focknet.build_network_s": (
                table.median_duration("focknet.build_network", "tn_cost"), "s"),
            "focknet.contraction_cost_s": (
                table.median_duration("focknet.contraction_cost", "tn_cost"), "s"),
            "focknet.plan_trials": (self.TN_TRIALS, "count"),
            "focknet.contract_s": (table.median_duration("focknet.contract", "tn_contract"), "s"),
            "focknet.est_flops": (plan["est_flops"], "count"),
            "cli.bytes_written": (self.bytes_written, "bytes"),
        }


# --- hiding-ensembles -----------------------------------------------------------

class HidingEnsembles(Workload):
    """Pooled singular values of all four ensembles at two collision-free
    points of criterion 9, shared-edge histograms, TV distances and
    split-half floors."""

    name = "hiding-ensembles"
    POINTS = ((200, 10, 200, 40), (400, 8, 400, 16))     # (M, N, K, draws)
    TV_POINT = 200
    BINS = 60
    PAIRS = (("haar_sub", "gaussian"), ("coe_sub", "gaussian_sym"))
    FLOORED = ("coe_sub", "gaussian_sym")
    probe = ("from hdgbs import hiding; "
             "pools = [hiding.pooled_singular_values(hiding.EnsembleSpec(k, 2, 1, 1), 2, 0) "
             "for k in hiding.ENSEMBLE_KINDS]; "
             "e = hiding.shared_edges(pools[0], pools[1], 2); "
             "hiding.spectra_tv_distance(hiding.histogram_from_values(pools[0], e, 2), "
             "hiding.histogram_from_values(pools[1], e, 2)); "
             "hiding.split_half_tv(hiding.EnsembleSpec('gaussian', 2, 1, 1), 2, 2, 0)")

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        seeds = iter(_ints(seed, 3, len(self.POINTS) * len(hiding.ENSEMBLE_KINDS)))
        self.points = [(m, n, k, draws,
                        {kind: (hiding.EnsembleSpec(kind, m, n, k), next(seeds))
                         for kind in hiding.ENSEMBLE_KINDS})
                       for m, n, k, draws in self.POINTS]
        self.draws = {kind: sum(p[3] for p in self.POINTS) for kind in hiding.ENSEMBLE_KINDS}
        self.outputs = []

    def _spectra(self, values_a, values_b, draws):
        edges = hiding.shared_edges(values_a, values_b, self.BINS)
        hist_a = hiding.histogram_from_values(values_a, edges, draws)
        hist_b = hiding.histogram_from_values(values_b, edges, draws)
        return hist_a, hist_b, hiding.spectra_tv_distance(hist_a, hist_b)

    def run_pass(self, rec):
        out = {}

        def op(label, fn, *args):
            out[label] = rec.op(label, fn, *args)

        for m, _, _, draws, specs in self.points:
            for kind, (spec, seed) in specs.items():
                op(f"pool.{kind}.M{m}", hiding.pooled_singular_values, spec, draws, seed)
            for a, b in self.PAIRS:
                op(f"spectra.{a}.M{m}", self._spectra,
                   out[f"pool.{a}.M{m}"], out[f"pool.{b}.M{m}"], draws)
            for kind in self.FLOORED:
                spec, seed = specs[kind]
                op(f"split.{kind}.M{m}", hiding.split_half_tv, spec, draws, self.BINS, seed)
        self.outputs.append(out)
        self.passes += 1

    def check(self, rec):
        first = self.outputs[0]
        for label in first:
            values = [o[label] for o in self.outputs]
            if label.startswith("spectra."):
                values = [v if v is FAILED else v[2] for v in values]     # the TV
            _same_every_pass(label, values)
        for m, n, k, draws, _ in self.points:
            pool = {kind: first[f"pool.{kind}.M{m}"] for kind in hiding.ENSEMBLE_KINDS}
            floor = {kind: first[f"split.{kind}.M{m}"] for kind in self.FLOORED}
            for kind in ("haar_sub", "coe_sub"):
                if pool[kind] is not FAILED:
                    checks.sub_singular_values(pool[kind])
            if pool["gaussian"] is not FAILED:
                checks.gaussian_frobenius(pool["gaussian"], m, n, k, draws)
            for hist_a, hist_b, _ in _ok(first[f"spectra.{a}.M{m}"] for a, _ in self.PAIRS):
                checks.masses_sum_to_one(hist_a.masses)
                checks.masses_sum_to_one(hist_b.masses)
            for kind in self.FLOORED:
                if not _failed(floor[kind], pool[kind]):
                    checks.split_half_tv(floor[kind], pool[kind], draws, self.BINS)
            tv = first[f"spectra.coe_sub.M{m}"]
            if m == self.TV_POINT and not _failed(tv, *floor.values()):
                checks.tv_below_floor(tv[2], statistics.mean(floor.values()))

    def per_layer(self, table):
        out = {f"hiding.draw_s.{kind}": (
            table.per_pass("hiding.pooled_singular_values", f"pool.{kind}") / self.draws[kind],
            "s") for kind in hiding.ENSEMBLE_KINDS}
        out["hiding.spectra_histograms_s"] = (table.per_pass(None, "spectra"), "s")
        out["hiding.split_half_tv_s"] = (table.per_pass("hiding.split_half_tv"), "s")
        return out


WORKLOADS = {w.name: w for w in (HafnianSweep, CliPipeline, HidingEnsembles)}
