#!/usr/bin/env python3
"""Builds and runs the wire-level benchmark (perfbench/wirebench.cc).

Run from the root of a source checkout:

    python3 perfbench/run.py --workload mixed-read --seed 1 --seconds 10 --trace 0

The first run configures and builds an optimized tree under .bench_build/
from the checkout's own sources; later runs rebuild incrementally. The KB
for a (workload shape, seed) pair is generated once and kept there too.
The last line of stdout is the result JSON (see perfbench/README.md).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("mixed-read", "point-read")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no library sources under {ROOT}/src; run from a full checkout")
    cache = os.path.join(BUILD, "CMakeCache.txt")
    if not os.path.isfile(cache):
        cmd = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(os.cpu_count() or 1)
    # Compiler temporaries stay inside the checkout too.
    tmp = os.path.join(ROOT, ".bench_build", "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                      stdout=sys.stderr, env=env).returncode != 0:
        fail("build failed")
    return os.path.join(BUILD, "wirebench")


def git_provenance():
    if not os.path.exists(os.path.join(ROOT, ".git")) or not shutil.which("git"):
        return "unknown", "unknown"
    sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    dirty = subprocess.run(["git", "-C", ROOT, "status", "--porcelain",
                            "--untracked-files=no"],
                           capture_output=True, text=True)
    if sha.returncode != 0 or dirty.returncode != 0:
        return "unknown", "unknown"
    return sha.stdout.strip(), "1" if dirty.stdout.strip() else "0"


def ensure_kb(binary, workload, seed, tiny):
    shape = "c1024-i1024" if workload == "mixed-read" else "c1024-i32768"
    name = f"{shape}-s{seed}{'-tiny' if tiny else ''}.classic"
    kb_dir = os.path.join(ROOT, ".bench_build", "kb")
    path = os.path.join(kb_dir, name)
    if os.path.isfile(path):
        return path
    os.makedirs(kb_dir, exist_ok=True)
    tmp = f"{path}.{os.getpid()}.tmp"
    cmd = [binary, "gen", "--workload", workload, "--seed", str(seed),
           "--out", tmp] + (["--tiny"] if tiny else [])
    if subprocess.run(cmd, stdout=sys.stderr,
                      timeout=RUN_TIMEOUT_S).returncode != 0:
        fail("KB generation failed")
    os.replace(tmp, path)
    return path


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small KBs, for the smoke test")
    args = parser.parse_args()
    if args.seconds <= 0 or args.seed < 0:
        fail("--seconds must be positive and --seed non-negative")

    binary = build()
    kb = ensure_kb(binary, args.workload, args.seed, args.tiny)
    work_dir = os.path.join(ROOT, ".bench_build", "runs")
    os.makedirs(work_dir, exist_ok=True)
    sha, dirty = git_provenance()
    cmd = [binary, "run", "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds), "--trace",
           str(args.trace), "--kb", kb, "--work-dir", work_dir,
           "--git-sha", sha, "--git-dirty", dirty]
    if args.tiny:
        cmd.append("--tiny")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        fail(f"wirebench exited with {proc.returncode}")
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
