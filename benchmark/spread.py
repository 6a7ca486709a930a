"""Run-to-run spread of the benchmark's metrics.

    python3 benchmark/spread.py --workload cli-pipeline --seconds 30 --seeds 1-10

runs ``benchmark/run.py`` once per seed, one after another, and prints
for each metric the median, the quartiles (``statistics.quantiles(n=4)``)
and the quartile distance as a share of the median.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", f"{seconds:g}", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=os.path.dirname(HERE), capture_output=True, text=True,
                          check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(results: list[dict]) -> None:
    shares = {(r["failed"], r["attempted"]) for r in results}
    print(f"{len(results)} runs; all correct: {all(r['correct'] for r in results)}; "
          f"(failed, attempted): {sorted(shares)}")
    print(f"{'metric':40s} {'unit':6s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'iqr/med':>8s}")
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        share = (q3 - q1) / med if med else float("nan")
        print(f"{name:40s} {results[0]['metrics'][name]['unit']:6s} "
              f"{med:12.5g} {q1:12.5g} {q3:12.5g} {share:8.3f}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seeds", required=True, help="e.g. 1-10 or 3,5,8")
    args = parser.parse_args()
    summarize([run(args.workload, s, args.seconds, args.trace)
               for s in parse_seeds(args.seeds)])
    return 0


if __name__ == "__main__":
    sys.exit(main())
