#!/usr/bin/env bash
# Runs the parallel serving benchmark and writes BENCH_parallel.json,
# including the derived 1 -> N thread scaling factors for the QueryBatch
# throughput sweep and a provenance block: git sha, nproc, the build's
# CMAKE_BUILD_TYPE and CLASSIC_OBS (from BUILD_DIR/CMakeCache.txt) and
# the compiler id and version. Usage:
#
#   bench/run_parallel_bench.sh [BUILD_DIR] [OUTPUT_JSON]
#
# or, after configuring: cmake --build build --target run_parallel_bench
set -euo pipefail

BUILD_DIR="${1:-build}"
OUT="${2:-BENCH_parallel.json}"

exe="$BUILD_DIR/bench/bench_parallel"
if [[ ! -x "$exe" ]]; then
  echo "error: $exe not built (run cmake --build $BUILD_DIR first)" >&2
  exit 1
fi

tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT

echo "== bench_parallel" >&2
"$exe" --benchmark_format=json \
       --benchmark_out="$tmpdir/bench_parallel.json" \
       --benchmark_out_format=json >&2

root="$(dirname "$0")/.."
sha="$(git -C "$root" rev-parse HEAD 2> /dev/null || echo unknown)"
status="$(git -C "$root" status --porcelain --untracked-files=no 2> /dev/null || true)"
dirty="$([[ -n "$status" ]] && echo 1 || echo 0)"
python3 - "$OUT" "$tmpdir/bench_parallel.json" "$BUILD_DIR" "$sha" \
    "$dirty" "$(nproc)" <<'EOF'
import glob, json, os, re, sys

out_path, in_path, build_dir, sha, dirty, nproc = sys.argv[1:7]
with open(in_path) as f:
    data = json.load(f)

def cmake_cache(key):
    with open(os.path.join(build_dir, "CMakeCache.txt")) as f:
        for line in f:
            name, _, value = line.strip().partition("=")
            if name.split(":")[0] == key:
                return value
    return None

def compiler():
    # CMake records the detected compiler per CMake version directory.
    found = glob.glob(os.path.join(build_dir, "CMakeFiles", "*",
                                   "CMakeCXXCompiler.cmake"))
    if not found:
        return "unknown"
    text = open(found[0]).read()
    fields = [re.search(r'set\(CMAKE_CXX_COMPILER_%s "([^"]*)"\)' % k, text)
              for k in ("ID", "VERSION")]
    return " ".join(m.group(1) for m in fields if m) or "unknown"

scale = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}
ctx = data.get("context", {})
merged = {
    "suite": "parallel",
    "unit_note": "ns_per_op normalized to nanoseconds (real time)",
    "provenance": {
        "git_sha": sha,
        "git_dirty": dirty == "1",
        "nproc": int(nproc),
        # CMakeLists.txt builds RelWithDebInfo when no type is set.
        "build_type": cmake_cache("CMAKE_BUILD_TYPE") or "RelWithDebInfo",
        "classic_obs": cmake_cache("CLASSIC_OBS"),
        "compiler": compiler(),
    },
    "context": {
        "host": ctx.get("host_name"),
        "cpu_mhz": ctx.get("mhz_per_cpu"),
        "num_cpus": ctx.get("num_cpus"),
    },
    "benchmarks": [],
}
batch_ns = {}
for run in data["benchmarks"]:
    if run.get("run_type") == "aggregate":
        continue
    ns = run["real_time"] * scale.get(run["time_unit"], 1.0)
    merged["benchmarks"].append({
        "name": run["name"],
        "ns_per_op": ns,
        "iterations": run["iterations"],
        "counters": {k: v for k, v in run.items()
                     if isinstance(v, (int, float)) and k not in
                     ("real_time", "cpu_time", "iterations",
                      "repetition_index", "family_index",
                      "per_family_instance_index", "threads")},
    })
    if run["name"].startswith("BM_QueryBatch/"):
        t = int(run["name"].split("/")[1])
        batch_ns[t] = ns

if 1 in batch_ns:
    merged["scaling_vs_1_thread"] = {
        str(t): round(batch_ns[1] / ns, 3) for t, ns in sorted(batch_ns.items())
    }
    if 8 in batch_ns:
        merged["scaling_1_to_8"] = round(batch_ns[1] / batch_ns[8], 3)
merged["note"] = (
    "BM_QueryBatch/T serves on an engine built with T threads; scaling is "
    "bounded by the cores in provenance.nproc")

with open(out_path, "w") as f:
    json.dump(merged, f, indent=1)
print(f"wrote {out_path} ({len(merged['benchmarks'])} benchmarks)")
EOF
