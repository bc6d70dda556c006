#!/usr/bin/env python3
"""Build and run the live-stack benchmark.

    python3 perfbench/run.py --workload zipf_get --seed 1 --seconds 10 --trace 0

Run from the repository root. The first run configures and builds the
benchmark package (perfbench/CMakeLists.txt, which compiles ../src) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that variable is
unset; later runs rebuild only what changed.

--workload is zipf_get, resize_cycle, pipeline_mix, or all (each in turn).
--trace 0 measures the end-to-end metrics, --trace 1 runs the traced pass
that reports the per-layer metrics. Everything the program prints is passed
through; the last line is one JSON object with the keys correct, attempted,
failed and metrics, holding the metrics BENCHMARK.json lists for the mode.
The exit code is nonzero when the build fails, a run fails, or any reply
contradicted the oracle.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["zipf_get", "resize_cycle", "pipeline_mix"]
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(message, code):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "net", "memcache_daemon.h")):
        fail("library sources (src/) not found next to perfbench/", 2)
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "-j", jobs, "--target", "proteus_perfbench"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries the results.
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if proc.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}", 2)
    return os.path.join(out, "proteus_perfbench")


def source_id():
    """The git commit when there is one, else a hash of the library sources."""
    try:
        if not os.path.exists(os.path.join(ROOT, ".git")):
            raise OSError("not a git checkout")
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10, check=False)
        if proc.returncode == 0 and proc.stdout.strip():
            return "git:" + proc.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for base in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, base)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sha256:" + digest.hexdigest()[:16]


def run_one(binary, workload, args, source):
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--source-id", source]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"{workload}: no result within {RUN_TIMEOUT_S} s", 5)
    result = None
    for line in stdout.splitlines():
        if line.startswith("@@result "):
            result = json.loads(line[len("@@result "):])
        else:
            print(line, flush=True)
    if result is None:
        fail(f"{workload}: exited {proc.returncode} without a result", proc.returncode or 3)
    return proc.returncode, result


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1", 2)

    binary = build()
    names = declared_metrics(args.trace)
    source = source_id()
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    final = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    exit_code = 0
    for workload in workloads:
        print(f"== {workload}", flush=True)
        code, result = run_one(binary, workload, args, source)
        exit_code = exit_code or code
        final["correct"] = final["correct"] and result["correct"]
        final["attempted"] += result["attempted"]
        final["failed"] += result["failed"]
        missing = [n for n in names if n not in result["metrics"]]
        if missing:
            fail(f"{workload}: result lacks {', '.join(missing)}", 4)
        prefix = f"{workload}." if len(workloads) > 1 else ""
        for n in names:
            final["metrics"][prefix + n] = result["metrics"][n]
    print(json.dumps(final, separators=(",", ":")), flush=True)
    sys.exit(exit_code)


if __name__ == "__main__":
    main()
