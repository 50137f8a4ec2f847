#!/usr/bin/env python3
"""Build espresso_bench from this checkout's sources, then run it.

Usage (from the repository root):

    python3 espresso_bench/run.py --workload wire_kv --seed 1 --seconds 10 --trace 0

Every argument is passed through to the binary (see espresso_bench/README.md).
The build lives in .bench_build/espresso_bench and is incremental, so only
the first run pays for it. Build output goes to stderr; the binary's last
stdout line is the run's JSON result. Exits non-zero, printing no result,
when the sources are missing or do not build.
"""

import fcntl
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "espresso_bench")
BUILD = os.path.join(ROOT, ".bench_build", "espresso_bench")
BINARY = os.path.join(BUILD, "espresso_bench")


def build():
    os.makedirs(BUILD, exist_ok=True)
    # Serialize concurrent runs on one checkout: the loser waits and
    # then finds an up-to-date build.
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            configure = ["cmake", "-S", SOURCE, "-B", BUILD,
                         "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            subprocess.run(configure, check=True, stdout=sys.stderr)
        jobs = str(min(4, os.cpu_count() or 1))
        subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                       check=True, stdout=sys.stderr)


def time_limit(args):
    """Seconds the binary may run: one workload of at most 60 measured
    seconds, traced, finishes in about 100 s; a hang must not outlive
    that by much."""
    workload = "all"
    if "--workload" in args[:-1]:
        workload = args[args.index("--workload") + 1]
    return 4 * 160 if workload == "all" else 160


def main():
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"espresso_bench: build failed: {e}", file=sys.stderr)
        return 2
    out = os.path.join(BUILD, "results")
    os.makedirs(out, exist_ok=True)
    sys.stdout.flush()
    args = sys.argv[1:]
    try:
        return subprocess.run([BINARY, "--out", out] + args,
                              timeout=time_limit(args)).returncode
    except subprocess.TimeoutExpired:
        print("espresso_bench: run exceeded its time limit; killed",
              file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
