#!/usr/bin/env python3
"""Tests of the repository benchmark itself.

    python3 perfbench/test_perfbench.py

- Two runs at one seed give bit-identical sim metrics and per-layer
  counters. Host-time metrics are left out.
- Traced runs pass perfbench's own check that every traced round
  reproduces the untraced round 0. This proves perfbench's timing
  perturbs no simulated number.
- Every metric BENCHMARK.json names is printed, with its unit.
- Without the simulator sources, the benchmark fails fast and prints no
  result.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # keep perfbench/ free of __pycache__
import run  # noqa: E402  (the build helper next to this file)

WORKLOADS = ["compute", "fileserver", "paging", "tenants"]
SEED = 7
SECONDS = "0.1"  # every run still does its minimum number of rounds


def bench_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def is_host_metric(name):
    return (name in ("setup_s", "wall_s", "peak_rss_mb", "native.wall_s",
                     "sim.mem_ops_per_host_s", "trace.overhead")
            or ".host_ns" in name)


def run_perfbench(workload, trace):
    out = subprocess.run(
        [run.BINARY, "--workload", workload, "--seed", str(SEED),
         "--seconds", SECONDS, "--trace", str(trace)],
        capture_output=True, text=True, timeout=170, check=False)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    return out.returncode, result


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        if not run.build():
            raise RuntimeError("perfbench build failed")
        cls.spec = bench_json()

    def check_run(self, workload, trace):
        rc, result = run_perfbench(workload, trace)
        self.assertEqual(rc, 0, result)
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        key = "per_layer" if trace else "end_to_end"
        want = {m["name"]: m["unit"] for m in self.spec[key]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(got, want)
        return {k: v["value"] for k, v in result["metrics"].items()}

    def test_deterministic_and_complete(self):
        for workload in WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    a = self.check_run(workload, trace)
                    b = self.check_run(workload, trace)
                    for name in a:
                        if not is_host_metric(name):
                            self.assertEqual(a[name], b[name], name)
                    if not trace:
                        for name, m in a.items():
                            self.assertNotEqual(m, 0, name)

    def test_fails_without_sources(self):
        with tempfile.TemporaryDirectory(
                dir=os.path.join(ROOT, ".bench_build")) as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            out = subprocess.run(
                ["python3", "perfbench/run.py", "--workload", "compute",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=170,
                check=False)
            self.assertNotEqual(out.returncode, 0)
            self.assertNotIn('"metrics"', out.stdout)


if __name__ == "__main__":
    unittest.main()
