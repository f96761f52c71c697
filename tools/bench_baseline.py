#!/usr/bin/env python3
"""Runs bench/engine_throughput and records the results in BENCH_engine.json.

The JSON file is the engine's perf trajectory: each entry is one labeled run
(a list of per-scenario results straight from the bench's JSON-lines
output). The baseline is the first entry (full or smoke, matching this run)
labelled with the file's "hash_baseline" — or simply the first such entry
when no label is set. Later runs are reported as speedups against it, and
their trace hashes are checked against it — an engine optimization that
changes the event schedule is a determinism bug, and this runner is the
first place it shows up. A *declared* hash-domain change records its runs
with --mark-baseline, which points "hash_baseline" at the new label; older
entries stay in the file.

Exit status: nonzero if the bench binary is missing or crashes. Perf
regressions only WARN (perf moves for legitimate reasons). Trace-hash
divergence WARNs by default but is a hard failure under --strict-hash: an
engine change that alters the event schedule is a determinism bug, and CI
(ci/check.sh) must fail on it at the first observation rather than relying
on a later gate to notice.

Usage:
  tools/bench_baseline.py --build-dir build --label pre_overhaul
  tools/bench_baseline.py --build-dir build --smoke --strict-hash
  tools/bench_baseline.py --build-dir build --label new_domain --mark-baseline
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path


def load_trajectory(path: Path) -> dict:
    if path.exists():
        with path.open() as f:
            return json.load(f)
    return {"entries": []}


def baseline_entry(trajectory: dict, smoke: bool):
    label = trajectory.get("hash_baseline")
    for entry in trajectory["entries"]:
        if entry.get("smoke", False) == smoke and label in (None, entry["label"]):
            return entry
    return None


def scenario_results(entry: dict) -> dict:
    """Maps (scenario, seed) -> result dict for one entry."""
    return {(r["scenario"], r["seed"]): r for r in entry["results"]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--build-dir", default="build",
                        help="CMake build dir containing bench/engine_throughput")
    parser.add_argument("--label", default="run",
                        help="name for this entry in the trajectory file")
    parser.add_argument("--output", default=None,
                        help="trajectory file (default: <repo>/BENCH_engine.json)")
    parser.add_argument("--smoke", action="store_true",
                        help="short run (~2s): proves the bench works, not perf")
    parser.add_argument("--strict-hash", action="store_true",
                        help="exit nonzero if any trace_hash diverges from "
                             "the baseline entry")
    parser.add_argument("--mark-baseline", action="store_true",
                        help="make this entry's label the hash baseline "
                             "(a declared trace-hash domain change)")
    args = parser.parse_args()

    repo = Path(__file__).resolve().parent.parent
    output = Path(args.output) if args.output else repo / "BENCH_engine.json"
    bench = Path(args.build_dir) / "bench" / "engine_throughput"
    if not bench.exists():
        print(f"bench_baseline: {bench} not built", file=sys.stderr)
        return 1

    cmd = [str(bench)] + (["--smoke"] if args.smoke else [])
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    except subprocess.TimeoutExpired:
        print("bench_baseline: bench timed out", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        print(f"bench_baseline: bench exited {proc.returncode}", file=sys.stderr)
        sys.stderr.write(proc.stderr)
        return 1

    results = []
    for line in proc.stdout.splitlines():
        line = line.strip()
        if line.startswith("{"):
            results.append(json.loads(line))
    if not results:
        print("bench_baseline: bench produced no results", file=sys.stderr)
        return 1

    trajectory = load_trajectory(output)
    if args.mark_baseline:
        trajectory["hash_baseline"] = args.label
    baseline = baseline_entry(trajectory, args.smoke)
    if baseline is None and args.strict_hash:
        # Without a baseline the hash check is vacuous; failing here keeps
        # the CI gate honest instead of silently passing.
        print("bench_baseline: --strict-hash but the trajectory has no "
              f"{'smoke' if args.smoke else 'full'} baseline entry to "
              "compare against", file=sys.stderr)
        return 1
    entry = {"label": args.label, "smoke": args.smoke, "results": results}

    diverged = 0
    for r in results:
        line = (f"  {r['scenario']:<16} seed {r['seed']:<6} "
                f"{r['events_per_s']:>12,.0f} events/s  "
                f"{r['allocs_per_event']:>8.3f} allocs/event  {r['trace_hash']}")
        print(line)
        if baseline is not None:
            base = scenario_results(baseline).get((r["scenario"], r["seed"]))
            if base is None:
                continue
            if base["events_per_s"] > 0:
                speedup = r["events_per_s"] / base["events_per_s"]
                print(f"    {speedup:.2f}x vs baseline '{baseline['label']}'")
            if base["trace_hash"] != r["trace_hash"]:
                diverged += 1
                severity = "ERROR" if args.strict_hash else "WARNING"
                print(f"    {severity}: trace_hash diverged from baseline "
                      f"'{baseline['label']}' ({base['trace_hash']}) — the "
                      f"event schedule changed",
                      file=sys.stderr)

    trajectory["entries"].append(entry)
    with output.open("w") as f:
        json.dump(trajectory, f, indent=2)
        f.write("\n")
    print(f"bench_baseline: appended entry '{args.label}' to {output}")
    if diverged and args.strict_hash:
        print(f"bench_baseline: {diverged} trace hash(es) diverged under "
              "--strict-hash", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
