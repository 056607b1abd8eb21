#!/usr/bin/env python3
"""Smoke test of the benchmark: tiny KBs, a couple of seconds per run.

    python3 perfbench/smoke_test.py

For every workload run.py accepts, on two seeds, runs the untraced and
the traced pass and asserts that the last stdout line is the result JSON
with exactly the contract's keys, that every end-to-end metric (untraced)
or per-layer metric (traced) is printed with its declared unit, that the
answer checks passed and that nothing failed. Exit status 0 = all passed.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = (3, 4)


def run(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "2",
         "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        return None, f"exit {proc.returncode}: {proc.stderr[-1500:]}"
    return json.loads(proc.stdout.strip().splitlines()[-1]), None


def check(spec, workload, seed, trace):
    result, error = run(workload, seed, trace)
    if error:
        return [error]
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True:
        problems.append("answer checks failed")
    if result.get("failed") != 0 or not result.get("attempted", 0) >= 1:
        problems.append(f"attempted={result.get('attempted')} "
                        f"failed={result.get('failed')}")
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = result.get("metrics", {})
    for m in wanted:
        got = metrics.get(m["name"])
        if got is None:
            problems.append(f"missing metric {m['name']}")
        elif got.get("unit") != m["unit"] or not isinstance(
                got.get("value"), (int, float)):
            problems.append(f"metric {m['name']} printed as {got}")
    extra = set(metrics) - {m["name"] for m in wanted}
    if extra:
        problems.append(f"undeclared metrics {sorted(extra)}")
    return problems


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for seed in SEEDS:
            for trace in (0, 1):
                problems = check(spec, workload, seed, trace)
                status = "ok" if not problems else "FAIL"
                print(f"{status:4s} {workload} seed={seed} trace={trace}",
                      flush=True)
                for p in problems:
                    print(f"     {p}")
                failures += bool(problems)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
