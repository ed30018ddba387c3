#!/usr/bin/env python3
"""Host-cost benchmark of the PMNet reproduction: one run of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run configures and builds
perfbench/ (which compiles the repository's libraries from src/) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; later runs
rebuild incrementally. The run itself is the pmnet_perf binary; this
script checks its output against BENCHMARK.json and prints, as the last
line, {"correct", "attempted", "failed", "metrics"}: the end_to_end
metrics with --trace 0, the per_layer metrics with --trace 1. A traced
run first measures the same workload untraced for half the time, to
give obs.trace_overhead. The line before it holds the run context.

Exits non-zero, printing no result, when the build or the run fails or
a metric is missing or has the wrong unit.
"""

import argparse
import json
import math
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Wall-clock budget for the measuring part of one run, after the build.
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench")


def build(out):
    """Configure (once) and build pmnet_perf. Returns the binary path."""
    env = dict(os.environ, TMPDIR=os.path.join(out, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    cmake_dir = os.path.join(out, "cmake")
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", cmake_dir,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr, env=env)
    subprocess.run(
        ["cmake", "--build", cmake_dir, "--target", "pmnet_perf", "-j4"],
        check=True, stdout=sys.stderr, env=env)
    return os.path.join(cmake_dir, "pmnet_perf")


def run_binary(binary, args, seconds, trace, work, deadline):
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(seconds), "--trace", "1" if trace else "0",
           "--work-dir", work]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=max(deadline - time.monotonic(), 1.0))
    if proc.returncode != 0:
        raise RuntimeError(f"pmnet_perf exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("pmnet_perf printed nothing")
    return json.loads(lines[-1])


def select(result, declared):
    """The declared metrics, checked for presence, unit and value."""
    metrics = {}
    for spec in declared:
        name = spec["name"]
        got = result["metrics"].get(name)
        if got is None:
            raise RuntimeError(f"metric {name} was not reported")
        if got["unit"] != spec["unit"]:
            raise RuntimeError(
                f"metric {name} has unit {got['unit']}, "
                f"BENCHMARK.json says {spec['unit']}")
        if not isinstance(got["value"], (int, float)) or \
                not math.isfinite(got["value"]):
            raise RuntimeError(f"metric {name} is not a finite number")
        metrics[name] = {"value": got["value"], "unit": got["unit"]}
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        manifest = json.load(f)
    if args.workload not in {w["name"] for w in manifest["workloads"]}:
        log(f"unknown workload {args.workload}")
        return 2

    out = build_dir()
    work = os.path.join(out, "work")
    os.makedirs(work, exist_ok=True)
    try:
        binary = build(out)
        deadline = time.monotonic() + RUN_TIMEOUT_S
        if args.trace:
            half = max(args.seconds / 2.0, 1.0)
            plain = run_binary(binary, args, half, False, work, deadline)
            result = run_binary(binary, args, half, True, work, deadline)
            traced_ops = result["metrics"]["ops_per_s"]["value"]
            result["metrics"]["obs.trace_overhead"] = {
                "value": plain["metrics"]["ops_per_s"]["value"] / traced_ops
                if traced_ops > 0 else 0.0,
                "unit": "ratio"}
            runs = [plain, result]
            metrics = select(result, manifest["per_layer"])
        else:
            result = run_binary(binary, args, args.seconds, False, work,
                                deadline)
            runs = [result]
            metrics = select(result, manifest["end_to_end"])
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            RuntimeError, KeyError, ValueError, OSError) as err:
        log(f"run failed: {err}")
        return 1

    failures = [f for r in runs for f in r.get("failures", [])]
    for reason in failures[:20]:
        log(f"failure: {reason}")
    print(json.dumps({"context": result.get("context", {}),
                      "failures": failures[:20]}))
    print(json.dumps({
        "correct": all(r["correct"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
