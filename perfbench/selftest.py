#!/usr/bin/env python3
"""Self-test of the repository benchmark, at reduced workload size.

    python3 perfbench/selftest.py

Checks, for every workload in BENCHMARK.json:
  * two runs with one seed print identical simulated metrics and trace hashes;
  * the traced run (--trace 1) reproduces the untraced run's simulated
    metrics and trace hashes;
  * every printed metric name and unit matches BENCHMARK.json, in both modes;
and that ycsb_a_scale24 on one unthreaded lane equals its default layout of
4 threaded lanes, and that the benchmark exits non-zero without printing a
result when the repository sources are absent.
"""
import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCALE = "0.05"
SEED = "7"

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)

_cache = {}


def run_uncached(workload, trace=0, extra=()):
    """Runs run.py; returns (exit code, report line, result line)."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", SEED, "--seconds", "1", "--trace", str(trace), "--scale", SCALE, *extra]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
    lines = proc.stdout.splitlines()
    return proc.returncode, json.loads(lines[-2]), json.loads(lines[-1])


def run(workload, trace=0, extra=()):
    """run_uncached, memoised so tests can share a run."""
    key = (workload, trace, tuple(extra))
    if key not in _cache:
        _cache[key] = run_uncached(workload, trace, extra)
    return _cache[key]


def exact(report):
    return (report["trace_hash"], report["final_trace_hash"], report["sim_exact"])


class BenchmarkSelfTest(unittest.TestCase):
    def check_metrics(self, result, section):
        declared = {m["name"]: m["unit"] for m in SPEC[section]}
        printed = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(printed, declared)
        for name, m in result["metrics"].items():
            self.assertIsInstance(m["value"], (int, float), name)

    def test_workloads(self):
        for w in (w["name"] for w in SPEC["workloads"]):
            with self.subTest(workload=w):
                code, report, result = run(w)
                self.assertEqual(code, 0, report["errors"])
                self.assertTrue(result["correct"])
                self.assertEqual(report["errors"], [])
                self.check_metrics(result, "end_to_end")
                # Repetitions inside one run already had to agree; a second
                # process must agree too.
                _, again, _ = run_uncached(w)
                self.assertEqual(exact(report), exact(again))
                code, traced, traced_result = run(w, trace=1)
                self.assertEqual(code, 0, traced["errors"])
                self.check_metrics(traced_result, "per_layer")
                self.assertEqual(exact(report), exact(traced))

    def test_scale24_one_lane_equals_threaded_lanes(self):
        _, threaded, _ = run("ycsb_a_scale24")
        code, one_lane, _ = run("ycsb_a_scale24", extra=("--lanes", "1", "--threads", "0"))
        self.assertEqual(code, 0, one_lane["errors"])
        self.assertEqual(exact(threaded), exact(one_lane))

    def test_fails_without_sources(self):
        bare = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                            "selftest_bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "ycsb_b_steady",
                               "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=bare,
                              env=env, stdout=subprocess.PIPE, text=True, timeout=180)
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main(verbosity=2)
