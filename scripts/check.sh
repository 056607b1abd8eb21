#!/usr/bin/env bash
# CI-style gate: tier-1 build + full test suite, static analysis
# (classic-lint over the shipped example programs, the seeded-defect
# corpus staying red, the schema profile validated against
# scripts/profile_schema.json plus byte-identity of --profile/--deps
# across runs, and clang-tidy over src/ when installed — findings fail
# the build), the observability gates (a -DCLASSIC_OBS=OFF build
# proving the instrumentation compiles out cleanly, and classic_stats
# --json over every shipped program — which fails on any erroring form —
# validated against the golden schema), the (explain ...) golden over
# the university example, the cost gates (scripts/check_cost.py:
# BM_Publish/1024, BM_BulkLoad/1024, BM_QuerySelectiveIndexed/100000 and
# serve_loadgen's open-loop p50 against the committed BENCH_*.json
# baselines, which must match this build's provenance, plus the
# selective query's >=10x lead over the non-selective one at 100k
# individuals; each gate must also fail against baselines 2x better),
# the serving gates (the wire-benchmark smoke test comparing every wire
# answer with the in-process one, and the server smoke under ASan), the
# store suites under ASan (copy-on-write values shared across
# epochs, epochs freed after unlock), the normal-form suites under ASan
# (owned forms freed during load and propagation), the description and
# rendering suites under ASan (desc_test drives the parser, the printer
# and every Description constructor, whose node keeps its payload in a
# std::variant; property_test and describe_test drive NormalForm::ToString
# and Description::ToString, which write into one growing buffer), the
# s-expression lexer's suites (wire, reader, fuzz) under ASan, the
# taxonomy suites (classification against brute force, pruning bounds)
# under ASan, then a ThreadSanitizer build that runs the parallel suites —
# including the serving reader-vs-writer race and the planner-vs-naive
# equivalence harness.
# Usage:
#
#   scripts/check.sh            # everything
#   scripts/check.sh --tsan     # TSan stage only (reuses build-tsan/)
#
# Exits nonzero on the first failure.
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="$(nproc 2>/dev/null || echo 2)"
TSAN_ONLY=0
[[ "${1:-}" == "--tsan" ]] && TSAN_ONLY=1

if [[ "$TSAN_ONLY" -eq 0 ]]; then
  echo "== tier-1: configure + build"
  cmake -B build -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON > /dev/null
  cmake --build build -j"$JOBS"
  echo "== tier-1: ctest"
  (cd build && ctest --output-on-failure -j"$JOBS")

  echo "== lint: classic-lint over shipped example programs"
  ./build/tools/classic_lint examples/*.classic examples/*.clq

  echo "== lint: seeded-defect fixtures must keep failing"
  for f in examples/lint/*.classic; do
    if ./build/tools/classic_lint "$f" > /dev/null 2>&1; then
      echo "check.sh: $f lints clean but is a seeded-defect fixture" >&2
      exit 1
    fi
  done

  echo "== analyze: schema profile against the golden schema"
  ./build/tools/classic_lint --profile examples/*.classic examples/*.clq \
      examples/lint/*.classic |
    python3 scripts/check_profile_schema.py

  echo "== analyze: profile and deps output are byte-identical across runs"
  ./build/tools/classic_lint --profile examples/*.classic > /tmp/profile.1
  ./build/tools/classic_lint --profile examples/*.classic > /tmp/profile.2
  cmp /tmp/profile.1 /tmp/profile.2
  ./build/tools/classic_lint --deps examples/*.classic \
      examples/lint/*.classic > /tmp/deps.1
  ./build/tools/classic_lint --deps examples/*.classic \
      examples/lint/*.classic > /tmp/deps.2
  cmp /tmp/deps.1 /tmp/deps.2
  rm -f /tmp/profile.1 /tmp/profile.2 /tmp/deps.1 /tmp/deps.2

  echo "== obs: classic_stats --json over every shipped program, against the golden schema"
  # classic_stats fails on any form whose answer is an error, so a read
  # form that errors in any example fails here.
  ./build/tools/classic_stats --format=json examples/*.classic examples/*.clq |
    python3 scripts/check_stats_schema.py

  echo "== planner: (explain ...) golden output on the university example"
  ./build/tests/explain_golden_test

  # The cost gates: each stage measures what bench/run_all.sh records
  # (the median of 5 repetitions; serve_loadgen's default offered rate,
  # 13.2k rps, and duration), and scripts/check_cost.py prints the fresh
  # figure, its baseline in the committed BENCH_*.json and its limit.
  reps=(--benchmark_format=json --benchmark_repetitions=5
        --benchmark_report_aggregates_only=true)

  echo "== perf: publish cost (BM_Publish/1024 against BENCH_parallel.json)"
  ./build/bench/bench_parallel --benchmark_filter='BM_Publish/1024$' \
      "${reps[@]}" 2> /dev/null | python3 scripts/check_cost.py build

  echo "== perf: bulk-load cost (BM_BulkLoad/1024 against BENCH_core.json)"
  ./build/bench/bench_assert --benchmark_filter='BM_BulkLoad/1024$' \
      "${reps[@]}" 2> /dev/null | python3 scripts/check_cost.py build

  echo "== perf: selective-query cost (BM_QuerySelectiveIndexed/100000 against BENCH_core.json, >=10x faster than the non-selective query)"
  ./build/bench/bench_query \
      --benchmark_filter='BM_Query(SelectiveIndexed|NonSelective)/100000$' \
      "${reps[@]}" 2> /dev/null | python3 scripts/check_cost.py build

  echo "== serve: open-loop p50 at 13.2k rps offered (against BENCH_serving.json)"
  ./build/tools/serve_loadgen --file=examples/university.classic --json |
    python3 scripts/check_cost.py build

  echo "== perf: every cost gate fails against baselines 2x better"
  # Each committed baseline file, read as a report, must fail against a
  # copy with every gated figure halved, so a gate that stopped failing
  # (a factor of 2 or more, a comparison that no longer runs) fails here.
  tmp="$(mktemp -d)"
  trap 'rm -rf "$tmp"' EXIT
  (cd scripts && python3 -c "import check_cost; check_cost.write_2x_better('$tmp')")
  for f in BENCH_core.json BENCH_parallel.json BENCH_serving.json; do
    if out="$(python3 scripts/check_cost.py build "$tmp" < "$f" 2>&1)"; then
      echo "$out" >&2
      echo "check.sh: the gates on $f pass against baselines 2x better" >&2
      exit 1
    fi
  done

  echo "== perfbench: wire-benchmark smoke (tiny KBs, both workloads and passes)"
  # Byte-compares every wire answer with the in-process answer and checks
  # the op-log replay, so a change that breaks wire-answer identity fails
  # here. Builds its own Release tree under .bench_build/ on first use.
  python3 perfbench/smoke_test.py

  echo "== asan: server smoke, the store, normal-form, description, rendering and taxonomy suites and the s-expression lexer under ASan+UBSan"
  cmake -B build-asan -S . -DCLASSIC_SANITIZE=ON > /dev/null
  cmake --build build-asan -j"$JOBS" --target serve_test classic_serve \
    epoch_persistence_test propagate_determinism_test retract_test \
    property_kb_test planner_test storage_test kb_test normalize_test \
    nf_store_test desc_test property_test describe_test wire_test sexpr_test \
    fuzz_robustness_test classify_reference_test taxonomy_test
  ./build-asan/tests/serve_test
  ./build-asan/tools/classic_serve --self-check examples/university.classic
  for t in epoch_persistence_test propagate_determinism_test retract_test \
      property_kb_test planner_test storage_test kb_test normalize_test \
      nf_store_test desc_test property_test describe_test wire_test \
      sexpr_test fuzz_robustness_test classify_reference_test taxonomy_test; do
    echo "== asan: $t"
    ./build-asan/tests/"$t"
  done

  echo "== obs: -DCLASSIC_OBS=OFF build (instrumentation compiles out, no dead helpers)"
  cmake -B build-noobs -S . -DCLASSIC_OBS=OFF \
    -DCMAKE_CXX_FLAGS=-Werror=unused-function > /dev/null
  cmake --build build-noobs -j"$JOBS" --target \
    classic_stats obs_test obs_parallel_test obs_stats_test
  ./build-noobs/tests/obs_test
  ./build-noobs/tests/obs_stats_test

  if command -v clang-tidy > /dev/null 2>&1; then
    echo "== lint: clang-tidy over src/ (findings fail the build)"
    find src -name '*.cc' -print0 |
      xargs -0 -P "$JOBS" -n 4 clang-tidy -p build --quiet \
        -warnings-as-errors='*'
  else
    echo "== lint: clang-tidy not installed, skipping"
  fi
fi

echo "== tsan: configure + build parallel suites"
cmake -B build-tsan -S . -DCLASSIC_TSAN=ON > /dev/null
cmake --build build-tsan -j"$JOBS" --target \
  util_test parallel_diff_test parallel_stress_test obs_parallel_test \
  epoch_persistence_test serve_test propagate_stress_test \
  propagate_determinism_test planner_equivalence_test

echo "== tsan: util_test (ThreadPool::ParallelFor completion latch)"
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/util_test
echo "== tsan: parallel_diff_test"
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/parallel_diff_test
echo "== tsan: parallel_stress_test"
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/parallel_stress_test
echo "== tsan: propagate_stress_test (bulk-load writer vs snapshot readers)"
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/propagate_stress_test
echo "== tsan: propagate_determinism_test"
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/propagate_determinism_test
echo "== tsan: obs_parallel_test"
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/obs_parallel_test
echo "== tsan: epoch_persistence_test"
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/epoch_persistence_test
echo "== tsan: planner_equivalence_test (planner vs naive across threads)"
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/planner_equivalence_test
echo "== tsan: serve_test (reader clients vs publishing writer)"
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/serve_test

echo "== all checks passed"
