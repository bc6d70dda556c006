#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/spread.py --workload zipf_get --seeds 1-10 [--seconds 10]

Runs perfbench/run.py once per seed and prints, per end-to-end metric, the
median of the values and the spread: the distance between the first and
third quartile (statistics.quantiles(values, n=4)) as a share of the median.
The spread should stay under a third of the metric's bound in
BENCHMARK.json. Exits nonzero when a run fails or any metric's spread,
setup_s's included, reaches its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds_from(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    values = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in seeds_from(args.seeds):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            print(proc.stdout[-2000:], proc.stderr[-2000:], file=sys.stderr)
            sys.exit(f"seed {seed}: run failed with exit code {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        row = []
        for name in values:
            values[name].append(result["metrics"][name]["value"])
            row.append(f"{name}={result['metrics'][name]['value']:.6g}")
        print(f"seed {seed}: " + " ".join(row), flush=True)
    worst = 0
    for m in spec["end_to_end"]:
        v = values[m["name"]]
        med = statistics.median(v)
        q1, _, q3 = statistics.quantiles(v, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        if spread >= m["bound"]:
            worst = 1
        print(f"{m['name']:22s} median={med:<12.6g} spread={spread:.4f} "
              f"bound={m['bound']} ({spread / m['bound']:.2f} of it)")
    sys.exit(worst)


if __name__ == "__main__":
    main()
