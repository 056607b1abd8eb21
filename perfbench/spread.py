#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's metrics across seeds.

    python3 perfbench/spread.py --workloads mixed-read,point-read --seeds 1-10 [--trace 0]

Runs perfbench/run.py once per (workload, seed), then prints per metric
the median of the values and their spread: the distance between the
first and third quartiles (statistics.quantiles(values, n=4)) as a share
of the median. With --trace 0 each end-to-end spread is compared with a
third of its bound in BENCHMARK.json. Raw results are appended as JSON
lines to --out.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", default="1-5")
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--out", default=os.path.join(
        ROOT, ".bench_build", "spread.jsonl"))
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    os.makedirs(os.path.dirname(args.out), exist_ok=True)

    ok = True
    for workload in args.workloads.split(","):
        values = {}
        for seed in parse_seeds(args.seeds):
            start = time.time()
            proc = subprocess.run(
                [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
                 "--workload", workload, "--seed", str(seed), "--seconds",
                 str(seconds), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True)
            elapsed = time.time() - start
            if proc.returncode != 0:
                print(proc.stderr[-2000:], file=sys.stderr)
                sys.exit(f"{workload} seed {seed}: exit {proc.returncode}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            with open(args.out, "a") as f:
                f.write(json.dumps({"workload": workload, "seed": seed,
                                    "trace": args.trace, "elapsed_s": elapsed,
                                    "result": result}) + "\n")
            print(f"{workload} seed {seed}: {elapsed:.1f}s "
                  f"correct={result['correct']} failed={result['failed']}",
                  flush=True)
            ok = ok and result["correct"] and result["failed"] == 0
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"\n{workload}: metric, median, spread (IQR/median)")
        for name, vals in sorted(values.items()):
            med = statistics.median(vals)
            spread = float("nan")
            if len(vals) >= 2 and med != 0:
                q = statistics.quantiles(vals, n=4)
                spread = (q[2] - q[0]) / abs(med)
            flag = ""
            if name in bounds and name != "setup_s":
                if not spread <= bounds[name] / 3:
                    flag = f"  > bound/3 ({bounds[name] / 3:.3f})"
            print(f"  {name:42s} {med:14.4f} {spread:8.4f}{flag}")
        print(flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
