#!/usr/bin/env python3
"""Cost guard: gates a benchmark report against the committed baselines.

Reads one report on stdin: Google Benchmark JSON with repetitions
(--benchmark_format=json --benchmark_repetitions=5
--benchmark_report_aggregates_only=true), a serve_loadgen --json report,
or a BENCH_*.json baseline. Every gated figure the report holds is
compared with the same figure in the BENCH_*.json baselines under
BASELINE_DIR (default: the repository root), and printed with its
baseline and its limit:

  - BM_Publish/1024, BM_BulkLoad/1024 and BM_QuerySelectiveIndexed/100000
    (the median of the repetitions, ns per op) and serve_loadgen's
    open-loop p50 must stay within FACTOR times their baselines;
  - BM_QueryNonSelective/100000 must stay at least MIN_SPEEDUP times
    slower than BM_QuerySelectiveIndexed/100000 in the same report: the
    non-selective query residual-tests the primitive's whole extension,
    the selective one streams one posting. A ratio of two figures of one
    run needs no baseline;
  - a serving report must hold completed requests and no errors.

A baseline gates only a build of its own provenance. When the nproc,
build type, compiler or CLASSIC_OBS of BUILD_DIR differ from the
baseline file's provenance block, the guard names the fields and fails:
re-record the baselines with bench/run_all.sh BUILD_DIR on the host that
runs the check. bench/run_all.sh stamps that block with provenance().

Usage:
  ./build/bench/bench_assert --benchmark_filter='BM_BulkLoad/1024$' \\
      --benchmark_format=json --benchmark_repetitions=5 \\
      --benchmark_report_aggregates_only=true |
    python3 scripts/check_cost.py build [BASELINE_DIR]

Exit status: 0 = every gate held; 1 = a gate failed, the report holds no
gated figure, or the baselines cannot gate this build.
"""

import glob
import json
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Under 2, so a figure at twice its baseline fails (scripts/check.sh
# checks that it does); above the spread of the stages' figures on the
# 4-vCPU host the baselines were recorded on (EXPERIMENTS.md E23).
FACTOR = 1.5
MIN_SPEEDUP = 10.0

SERVING_P50 = "serving open-loop p50"
# Gated figure -> the baseline file that holds it.
GATED = {
    "BM_Publish/1024": "BENCH_parallel.json",
    "BM_BulkLoad/1024": "BENCH_core.json",
    "BM_QuerySelectiveIndexed/100000": "BENCH_core.json",
    SERVING_P50: "BENCH_serving.json",
}
SELECTIVE = "BM_QuerySelectiveIndexed/100000"
NON_SELECTIVE = "BM_QueryNonSelective/100000"
MATCHED = ("nproc", "build_type", "compiler", "classic_obs")


def provenance(build_dir):
    """The git sha and dirty flag of this checkout, nproc, and the
    CMAKE_BUILD_TYPE, CLASSIC_OBS and compiler of the build tree."""

    def git(*args):
        return subprocess.run(["git", "-C", ROOT, *args], capture_output=True,
                              text=True).stdout.strip()

    cache = {}
    with open(os.path.join(build_dir, "CMakeCache.txt")) as f:
        for line in f:
            name, _, value = line.strip().partition("=")
            cache[name.split(":")[0]] = value
    compiler = "unknown"
    # CMake records the detected compiler per CMake version directory.
    for path in glob.glob(os.path.join(build_dir, "CMakeFiles", "*",
                                       "CMakeCXXCompiler.cmake")):
        text = open(path).read()
        found = [re.search(r'set\(CMAKE_CXX_COMPILER_%s "([^"]*)"\)' % k, text)
                 for k in ("ID", "VERSION")]
        compiler = " ".join(m.group(1) for m in found if m) or compiler
    return {
        "git_sha": git("rev-parse", "HEAD") or "unknown",
        "git_dirty": bool(git("status", "--porcelain", "--untracked-files=no")),
        "nproc": len(os.sched_getaffinity(0)),
        # CMakeLists.txt builds RelWithDebInfo when no type is set.
        "build_type": cache.get("CMAKE_BUILD_TYPE") or "RelWithDebInfo",
        "classic_obs": cache.get("CLASSIC_OBS"),
        "compiler": compiler,
    }


def median_rows(report):
    """One row per benchmark of Google Benchmark JSON: the median of its
    repetitions, with ns_per_op in nanoseconds (real time)."""
    scale = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}
    rows = []
    # Registration order, also when repetitions ran interleaved.
    for run in sorted(report["benchmarks"], key=lambda r: (
            r["family_index"], r["per_family_instance_index"])):
        if run.get("aggregate_name") != "median":
            continue
        rows.append({
            "name": run["run_name"],
            "ns_per_op": run["real_time"] * scale[run["time_unit"]],
            "repetitions": run["repetitions"],
            "counters": {k: v for k, v in run.items()
                         if isinstance(v, (int, float)) and k not in
                         ("real_time", "cpu_time", "iterations", "repetitions",
                          "repetition_index", "family_index",
                          "per_family_instance_index", "threads")},
        })
    return rows


def figures(doc):
    """{figure: ns} for a serve_loadgen report, a BENCH_*.json baseline
    (rows with ns_per_op) or raw Google Benchmark JSON (median rows)."""
    if doc.get("benchmark") == "serving":
        return {SERVING_P50: doc["latency_ns"]["p50"]}
    rows = doc["benchmarks"] if "provenance" in doc else median_rows(doc)
    return {row["name"]: row["ns_per_op"] for row in rows}


def write_2x_better(out_dir):
    """Copies the committed baselines into out_dir with every gated figure
    halved. check.sh requires the guard to fail against the copy."""
    for path in set(GATED.values()):
        with open(os.path.join(ROOT, path)) as f:
            doc = json.load(f)
        if path == GATED[SERVING_P50]:
            doc["latency_ns"]["p50"] /= 2
        for row in doc.get("benchmarks", []):
            if GATED.get(row["name"]) == path:
                row["ns_per_op"] /= 2
        with open(os.path.join(out_dir, path), "w") as f:
            json.dump(doc, f)


def main():
    if len(sys.argv) not in (2, 3):
        print("usage: check_cost.py BUILD_DIR [BASELINE_DIR] < REPORT",
              file=sys.stderr)
        return 1
    build_dir = sys.argv[1]
    baseline_dir = sys.argv[2] if len(sys.argv) == 3 else ROOT
    report = json.load(sys.stdin)
    fresh = figures(report)
    here = provenance(build_dir)
    failures = []

    gated = [name for name in GATED if name in fresh]
    if not gated:
        failures.append("the report holds no gated figure")
    for name in gated:
        path = os.path.join(baseline_dir, GATED[name])
        with open(path) as f:
            baseline = json.load(f)
        recorded = baseline.get("provenance", {})
        differ = [k for k in MATCHED if recorded.get(k) != here[k]]
        if differ:
            print(f"check_cost: {GATED[name]} was recorded with " +
                  ", ".join(f"{k}={recorded.get(k)!r}" for k in differ) +
                  "; this build has " +
                  ", ".join(f"{k}={here[k]!r}" for k in differ) +
                  f". Re-record on this host: bench/run_all.sh {build_dir}")
            failures.append(f"{name}: provenance")
            continue
        base = figures(baseline).get(name)
        if base is None:
            failures.append(f"{name}: not in {GATED[name]}")
            continue
        limit = base * FACTOR
        verdict = "ok" if fresh[name] <= limit else "REGRESSION"
        print(f"check_cost: {name} = {fresh[name]:,.0f} ns (baseline "
              f"{base:,.0f}, limit {limit:,.0f}) -> {verdict}")
        if fresh[name] > limit:
            failures.append(name)

    if SELECTIVE in fresh and NON_SELECTIVE in fresh:
        speedup = fresh[NON_SELECTIVE] / fresh[SELECTIVE]
        verdict = "ok" if speedup >= MIN_SPEEDUP else "REGRESSION"
        print(f"check_cost: {NON_SELECTIVE} / {SELECTIVE} = {speedup:,.1f}x "
              f"(floor {MIN_SPEEDUP:,.1f}x) -> {verdict}")
        if speedup < MIN_SPEEDUP:
            failures.append("selective speedup")

    if report.get("benchmark") == "serving":
        print(f"check_cost: serving {report['requests']:,} requests at "
              f"{report['offered_rps']:,.0f} rps offered, "
              f"{report['errors']:,} errors")
        if report["requests"] == 0 or report["errors"]:
            failures.append("serving requests")

    if failures:
        print("check_cost: FAILED (" + ", ".join(failures) + ")",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
