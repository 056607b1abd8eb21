#!/usr/bin/env python3
"""Selective-query cost guard for the filler-inverted index.

Reads Google Benchmark JSON (--benchmark_format=json) on stdin, finds
the BM_QuerySelectiveIndexed/100000 and BM_QueryNonSelective/100000
runs, and fails unless the selective query beats the non-selective one
by at least MIN_SPEEDUP. Both queries sit below the same primitive.
The selective one names a (role, filler) pair, so the planner streams
that pair's posting list; the non-selective one offers no posting, so
the planner residual-tests the primitive's whole extension. That is the
O(extension) work a selective query must never do. At 100k individuals
the measured gap is four orders of magnitude, so a 10x floor catches a
regression to it without flaking on machine noise.

Usage:
  ./build/bench/bench_query \
      --benchmark_filter='BM_Query(SelectiveIndexed|NonSelective)/100000$' \
      --benchmark_format=json --benchmark_min_time=0.05 |
    python3 scripts/check_query_cost.py
"""

import json
import sys

MIN_SPEEDUP = 10.0

SELECTIVE = "BM_QuerySelectiveIndexed/100000"
NON_SELECTIVE = "BM_QueryNonSelective/100000"


def ns_per_op(runs, name):
    scale = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}
    for b in runs:
        if b.get("name") == name and b.get("run_type") != "aggregate":
            return b["real_time"] * scale.get(b["time_unit"], 1.0)
    return None


def main() -> int:
    data = json.load(sys.stdin)
    runs = data.get("benchmarks", [])
    selective = ns_per_op(runs, SELECTIVE)
    non_selective = ns_per_op(runs, NON_SELECTIVE)
    if selective is None or non_selective is None:
        print(
            f"check_query_cost: need both {SELECTIVE} and {NON_SELECTIVE} "
            "in input",
            file=sys.stderr,
        )
        return 1
    speedup = non_selective / selective if selective > 0 else float("inf")
    verdict = "ok" if speedup >= MIN_SPEEDUP else "REGRESSION"
    print(
        f"check_query_cost: selective {selective:,.0f} ns/op, "
        f"non-selective {non_selective:,.0f} ns/op -> {speedup:,.1f}x "
        f"(floor {MIN_SPEEDUP:,.1f}x) -> {verdict}"
    )
    return 0 if speedup >= MIN_SPEEDUP else 1


if __name__ == "__main__":
    sys.exit(main())
