#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_perfbench.py

Builds pmnet_perf the way run.py does, then checks that
  - one seed gives identical exact counts and modeled figures across
    runs (the simulator workloads; the gateway's counts depend on
    socket timing and are not exact);
  - a corrupted read-back after the daemon restart counts as a failure;
  - every metric the binary prints matches BENCHMARK.json by name and
    unit, on every workload.
Takes about 75 seconds.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402  (the benchmark entry point, for its build step)

# Metrics a simulator run must repeat exactly for one seed.
EXACT_PREFIXES = ("sim.events_per_op", "net.", "pmnet.", "pm.write_lines",
                  "pm.flush_lines", "pm.fences", "stack.retrans_asks",
                  "stack.client_timeouts", "stack.packets_resent",
                  "stack.duplicates_dropped", "testbed.model_",
                  "obs.breakdown_")

_results = {}


def pmnet_perf(workload, seed, *extra, repeat=0):
    """One short run of the binary, cached by its arguments; a new
    @p repeat index forces another run."""
    key = (workload, seed, repeat) + extra
    if key not in _results:
        out = run.build_dir()
        binary = run.build(out)
        work = os.path.join(out, "work")
        os.makedirs(work, exist_ok=True)
        proc = subprocess.run(
            [binary, "--workload", workload, "--seed", str(seed),
             "--seconds", "1", "--trace", "1",
             "--work-dir", work, *extra],
            stdout=subprocess.PIPE, text=True, check=True, timeout=300)
        _results[key] = json.loads(proc.stdout.strip().splitlines()[-1])
    return _results[key]


def exact_metrics(result):
    return {name: m["value"] for name, m in result["metrics"].items()
            if name.startswith(EXACT_PREFIXES)}


class SeedDeterminism(unittest.TestCase):
    def check_workload(self, workload):
        first = pmnet_perf(workload, 11)
        again = pmnet_perf(workload, 11, repeat=1)
        self.assertTrue(first["correct"], first.get("failures"))
        self.assertTrue(again["correct"], again.get("failures"))
        self.assertEqual(exact_metrics(first), exact_metrics(again))
        self.assertGreater(first["metrics"]["testbed.model_ops_per_s"]
                           ["value"], 0)
        self.assertGreater(first["metrics"]["obs.breakdown_wire_us"]
                           ["value"], 0)

    def test_sim_ycsb_cached(self):
        self.check_workload("sim_ycsb_cached")

    def test_sim_recovery(self):
        self.check_workload("sim_recovery")

    def test_another_seed_changes_the_inputs(self):
        a = exact_metrics(pmnet_perf("sim_ycsb_cached", 11))
        b = exact_metrics(pmnet_perf("sim_ycsb_cached", 12))
        self.assertNotEqual(a, b)


class ReadBack(unittest.TestCase):
    def test_clean_run_has_no_failures(self):
        result = pmnet_perf("gw_sync", 5)
        self.assertTrue(result["correct"], result.get("failures"))
        self.assertEqual(result["failed"], 0)

    def test_corrupted_read_back_is_a_failure(self):
        result = pmnet_perf("gw_sync", 5, "--corrupt-readback")
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 1)
        self.assertIn("did not survive the kill", result["failures"][0])


class MetricsMatchManifest(unittest.TestCase):
    def test_names_and_units(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            manifest = json.load(f)
        declared = {m["name"]: m["unit"]
                    for m in manifest["end_to_end"] + manifest["per_layer"]}
        # run.py adds the tracing overhead from two binary runs.
        declared.pop("obs.trace_overhead")
        for workload in [w["name"] for w in manifest["workloads"]]:
            with self.subTest(workload=workload):
                printed = {name: m["unit"] for name, m in
                           pmnet_perf(workload, 11)["metrics"].items()}
                self.assertEqual(printed, declared)


if __name__ == "__main__":
    unittest.main(verbosity=2)
