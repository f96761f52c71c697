#!/usr/bin/env python3
"""Runs the repository benchmark on one workload and prints its result.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the perfbench binary from source (CMake, Release) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs it, checks
that it printed exactly the metrics BENCHMARK.json declares (end_to_end with
--trace 0, per_layer with --trace 1) with their units, and prints as its last
line one JSON object: {"correct", "attempted", "failed", "metrics"}. The line
before it is the binary's full report (trace hashes, exact simulated metrics,
errors). Exits non-zero when the build fails, the output check fails, or the
printed metrics do not match BENCHMARK.json.

Extra flags for the self-test (perfbench/selftest.py): --scale <f> shrinks
the workload, --lanes/--threads override ycsb_a_scale24's lane layout.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("rocksteady sources (src/) not found next to perfbench/")
    out = build_dir()
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", out, "--target", "perfbench", "-j", jobs])
    for step in steps:
        proc = subprocess.run(step, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout)
            fail("build step failed: %s" % " ".join(step))
    return os.path.join(out, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", type=float)
    parser.add_argument("--lanes", type=int)
    parser.add_argument("--threads", type=int, choices=(0, 1))
    args = parser.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(spec_path):
        fail("BENCHMARK.json not found")
    with open(spec_path) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload %r" % args.workload)
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    try:
        binary = build()
    except OSError as e:
        fail("build failed: %s" % e)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    for flag, value in (("--scale", args.scale), ("--lanes", args.lanes),
                        ("--threads", args.threads)):
        if value is not None:
            cmd += [flag, str(value)]
    if args.trace:
        spans = "spans-%s-%d.json" % (args.workload, args.seed)
        cmd += ["--spans", os.path.join(build_dir(), spans)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark exceeded %d s" % RUN_TIMEOUT_S)
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    if not lines:
        fail("benchmark printed nothing (exit code %d)" % proc.returncode)
    try:
        report = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("benchmark output is not JSON: %r" % lines[-1][:200])

    errors = list(report.get("errors", []))
    metrics = report["metrics"]
    if set(metrics) != set(declared):
        errors.append("metrics differ from BENCHMARK.json: missing %s, extra %s" % (
            sorted(set(declared) - set(metrics)), sorted(set(metrics) - set(declared))))
    for name, unit in declared.items():
        if name in metrics and metrics[name]["unit"] != unit:
            errors.append("metric %s has unit %s, BENCHMARK.json says %s" % (
                name, metrics[name]["unit"], unit))
    correct = bool(report.get("correct")) and proc.returncode == 0 and not errors
    report["errors"] = errors
    for error in errors:
        print("perfbench: " + error, file=sys.stderr)

    print(json.dumps(report))
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, int(report.get("attempted", 0))),
        "failed": int(report.get("failed", 0)),
        "metrics": {name: metrics[name] for name in declared if name in metrics},
    }))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
