"""Run one benchmark workload and print its metrics as one JSON line.

    python3 benchmark/run.py --workload hafnian-sweep --seed 1 --seconds 30 --trace 0

Run from the repository root; hdgbs is imported from ``src/``. The run
builds the workload's inputs from the seed, then runs whole passes over
the workload's fixed operations until ``--seconds`` have elapsed (at
least two passes), times set-up in fresh interpreters before the first
pass, after each and at the end, checks every output, and prints
``{"correct", "attempted", "failed", "metrics"}`` as the last line of
standard output. ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` wraps every public hdgbs function, reports the per-layer
metrics and writes the spans to ``benchmark/out/``. Every workload prints
every metric that ``BENCHMARK.json`` lists for its mode; a per-layer
metric of calls the workload does not make reads 0.
"""

import os

# BLAS/OpenMP pools are pinned to one thread before numpy loads, so the
# only parallelism is the Hafnian's own two workers.
PINNED_THREADS = {v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                   "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}
os.environ.update(PINNED_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import threading  # noqa: E402
import traceback  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_BEFORE = 5
SETUP_MIN = 15
MIN_PASSES = 2
PROBE_TIMEOUT_S = 60


def time_setup(probe: str) -> float:
    """Wall time of a fresh interpreter that imports hdgbs and makes one
    smallest call into each layer the workload uses.

    The child is reaped with a blocking ``wait()``: ``wait(timeout=...)``
    polls with sleeps of up to 50 ms, which would round the time up to
    the next poll. A timer kills a child that hangs."""
    env = dict(os.environ, PYTHONPATH=SRC, **PINNED_THREADS)
    t0 = perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", "import hdgbs; " + probe], env=env,
                            cwd=ROOT, stdout=subprocess.DEVNULL)
    timer = threading.Timer(PROBE_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:     # wait() was interrupted
            proc.kill()
            proc.wait()
    elapsed = perf_counter() - t0
    if code != 0:
        raise subprocess.CalledProcessError(code, proc.args)
    return elapsed


def manifest_metrics(key: str) -> dict:
    """Name -> unit of the metrics ``BENCHMARK.json`` lists under ``key``."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[key]}


def per_layer_metrics(work, table, rec) -> dict:
    """Every per-layer metric of the manifest. After failed operations a
    workload metric may have no data; the run then reports the others,
    not a traceback."""
    from workloads import common_per_layer
    metrics = common_per_layer(table)
    try:
        metrics.update(work.per_layer(table))
    except Exception:
        if not rec.failed:
            raise
        traceback.print_exc(file=sys.stderr)
    units = manifest_metrics("per_layer")
    for name, (_, unit) in metrics.items():
        if units.get(name) != unit:
            raise RuntimeError(f"per-layer metric {name} ({unit}) is not in BENCHMARK.json")
    return {name: metrics.get(name, (0.0, unit)) for name, unit in units.items()}


def layer_modules():
    import hdgbs
    from hdgbs import bench, circuit, cli, focknet, hafnian, hiding, matrices, probability
    # logmath's scalar helpers (lgamma-based, called ~10^5 times per pass
    # inside the distributions) are left unwrapped: a span per call would
    # measure the tracer, not the layer
    return [hdgbs, matrices, hafnian, circuit, probability, hiding, focknet, bench, cli]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "hdgbs", "__init__.py")):
        print(f"hdgbs sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import spans
    import workloads
    from checks import CheckFailed

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    cls = workloads.WORKLOADS[args.workload]

    # set-up is timed five times up front, once after every pass and, if
    # the passes were fewer than ten, again at the end up to fifteen times,
    # so its median samples the same stretch of machine drift as the
    # passes; the first, untimed run compiles bytecode, as a user's first
    # run does
    probe = None if args.trace else cls.probe
    setup_times = []
    if probe:
        time_setup(probe)
        setup_times.extend(time_setup(probe) for _ in range(SETUP_BEFORE))
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        work = cls(args.seed, workdir)
        tracer = spans.Tracer() if args.trace else None
        rec = spans.Recorder(tracer)
        if tracer:
            tracer.install(layer_modules())
        t_start = perf_counter()
        try:
            while work.passes < MIN_PASSES or perf_counter() - t_start < args.seconds:
                rec.begin_pass()
                work.run_pass(rec)
                work.after_pass()
                if probe:
                    setup_times.append(time_setup(probe))
            work.finish(rec)
            if probe:
                setup_times.extend(time_setup(probe)
                                   for _ in range(SETUP_MIN - len(setup_times)))
        finally:
            if tracer:
                tracer.uninstall()

        failures = []
        try:
            work.check(rec)
        except CheckFailed as exc:
            failures.append(str(exc))
        except Exception:       # an output too malformed to compare
            failures.append(traceback.format_exc())
        for msg in failures:
            print(f"check failed: {msg}", file=sys.stderr)

        if tracer:
            metrics = per_layer_metrics(work, spans.SpanTable(tracer), rec)
            tracer.write(os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.jsonl"),
                         t_start)
        else:
            metrics = {"setup_s": (statistics.median(setup_times), "s"),
                       "pass_s": (statistics.median(rec.pass_totals), "s"),
                       "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                                        / 1024.0, "MiB")}
            if manifest_metrics("end_to_end") != {k: u for k, (_, u) in metrics.items()}:
                raise RuntimeError("end-to-end metrics differ from BENCHMARK.json")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {"correct": not failures, "attempted": rec.attempted, "failed": rec.failed,
              "metrics": {name: {"value": float(value), "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    line = json.dumps(result)
    with open(os.path.join(OUT, "results.jsonl"), "a") as fh:
        fh.write(json.dumps({"workload": args.workload, "seed": args.seed,
                             "seconds": args.seconds, "trace": args.trace,
                             "passes": work.passes,
                             "pass_s": statistics.median(rec.pass_totals), **result}) + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
