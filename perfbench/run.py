#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

Usage, from the repository root:

    python3 perfbench/run.py --workload zoo-reach --seed 1 --seconds 25 --trace 0

Every run configures and builds perfbench/ (the library sources under src/
plus aedbench.cpp) into .bench_build/perfbench; only the first one compiles
everything. The benchmark's output is passed through; its last line is the
JSON result. Build output goes to stderr. Exits non-zero, without a result
line, when the build or the run fails.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("zoo-reach", "dc-classes", "verify-large")


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "-j", jobs],
    ]
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit("perfbench: build step failed: " + " ".join(cmd))


def program_digest(path):
    """Short digest of the built program, so each build keeps its own record."""
    digest = hashlib.sha256()
    with open(path, "rb") as program:
        for block in iter(lambda: program.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build()
    program = os.path.join(BUILD, "aedbench")
    # Counts recorded by an earlier run of the same seed with the same
    # program; a rebuilt program starts a record of its own, so a code change
    # is not reported as nondeterminism.
    counts_dir = os.path.join(ROOT, ".bench_build", "counts",
                              program_digest(program))
    os.makedirs(counts_dir, exist_ok=True)
    cmd = [
        program,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--oracle-file", os.path.join(HERE, "oracle_verdicts.txt"),
        "--counts-file",
        os.path.join(counts_dir, "%s-%d.txt" % (args.workload, args.seed)),
    ]
    sys.stdout.flush()
    done = subprocess.run(cmd)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
