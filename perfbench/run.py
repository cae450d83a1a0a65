#!/usr/bin/env python3
"""Builds the perfbench binary from this checkout's sources and runs it.

Run from the root of a checkout:

    python3 perfbench/run.py --workload hub-tcp-1k --seed 1 --seconds 30 --trace 0

The build goes to $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench); the first call compiles everything, later calls
rebuild only what changed. Build output goes to stderr, so the last
line on stdout is the benchmark's JSON result. The exit code is the
benchmark's: non-zero when the build fails or any operation failed.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def scratch_env():
    """Points TMPDIR into the build directory, so the compiler's and the
    benchmark's temporary files stay inside the checkout."""
    tmp = os.path.join(build_dir(), "tmp")
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, TMPDIR=tmp)


def build():
    """Configures and builds the binary; returns its path."""
    out = build_dir()
    steps = [["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", out, "-j", "4"]]
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              env=scratch_env())
        if done.returncode != 0:
            sys.exit("perfbench: build step failed: " + " ".join(step))
    return os.path.join(out, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()

    binary = build()
    env = scratch_env()
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--tmpdir", env["TMPDIR"]]
    sys.stdout.flush()
    try:
        done = subprocess.run(command, timeout=RUN_TIMEOUT_S, env=env)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
