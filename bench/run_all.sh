#!/usr/bin/env bash
# Regenerates the committed benchmark baselines at the repository root
# from the binaries in BUILD_DIR:
#
#   BENCH_core.json      bench_subsumption, bench_classification,
#                        bench_query and bench_assert
#   BENCH_parallel.json  bench_parallel, plus the QueryBatch 1 -> T
#                        thread scaling factors
#   BENCH_serving.json   serve_loadgen's open loop at its default rate
#                        and duration (the ones scripts/check.sh offers):
#                        the run with the median p50 of 5
#
# Each row is the median of 5 repetitions, the statistic the check.sh
# cost guard (scripts/check_cost.py) measures; the repetitions run
# interleaved across each binary's benchmarks, so a baseline samples
# more than one phase of a shared host's load. Each file carries the
# provenance block that guard gates on: git sha and dirty flag, nproc,
# the tree's CMAKE_BUILD_TYPE and CLASSIC_OBS, and the compiler. Record
# from a clean checkout, on the host that runs check.sh, from the tree
# it builds:
#
#   bench/run_all.sh build
#
# or, after configuring: cmake --build build --target run_all
set -euo pipefail

BUILD_DIR="$(cd "${1:?usage: bench/run_all.sh BUILD_DIR}" && pwd)"
cd "$(dirname "$0")/.."
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

for b in bench_subsumption bench_classification bench_query bench_assert \
    bench_parallel; do
  echo "== $b" >&2
  "$BUILD_DIR/bench/$b" --benchmark_repetitions=5 \
      --benchmark_enable_random_interleaving=true \
      --benchmark_report_aggregates_only=true \
      --benchmark_out="$tmp/$b.json" --benchmark_out_format=json >&2
done
echo "== serve_loadgen" >&2
for i in 1 2 3 4 5; do
  "$BUILD_DIR/tools/serve_loadgen" --file=examples/university.classic \
      --json > "$tmp/serving_$i.json"
done

python3 - "$BUILD_DIR" "$tmp" <<'EOF'
import json, sys

sys.path.insert(0, "scripts")
from check_cost import median_rows, provenance

build_dir, tmp = sys.argv[1:3]
prov = provenance(build_dir)


def load(name):
    with open(f"{tmp}/{name}.json") as f:
        return json.load(f)


def write(path, doc):
    with open(path, "w") as f:
        json.dump({"provenance": prov, **doc}, f, indent=1)
        f.write("\n")
    print(f"wrote {path}", file=sys.stderr)


core = [{"suite": b, **row}
        for b in ("bench_subsumption", "bench_classification", "bench_query",
                  "bench_assert")
        for row in median_rows(load(b))]
write("BENCH_core.json", {"suite": "core", "benchmarks": core})

parallel = median_rows(load("bench_parallel"))
batch = {int(r["name"].split("/")[1]): r["ns_per_op"]
         for r in parallel if r["name"].startswith("BM_QueryBatch/")}
write("BENCH_parallel.json", {
    "suite": "parallel",
    "benchmarks": parallel,
    # BM_QueryBatch/T serves on an engine built with T threads; scaling
    # is bounded by provenance.nproc.
    "scaling_vs_1_thread": {str(t): round(batch[1] / ns, 3)
                            for t, ns in sorted(batch.items())},
})
serving = sorted((load(f"serving_{i}") for i in range(1, 6)),
                 key=lambda r: r["latency_ns"]["p50"])
write("BENCH_serving.json", serving[2])
EOF
