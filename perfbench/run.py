#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The benchmark is built with
dune into the checkout's own _build directory; the last line of
standard output is the result object (see perfbench/README.md).
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def git_rev():
    try:
        out = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = ap.parse_args()

    for need in ("dune-project", os.path.join("lib", "service", "server.ml")):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail("no %s: run from the root of a full source checkout" % need)

    # --cache=disabled: the shared dune cache lives outside the checkout
    build = subprocess.run(["dune", "build", "--root", ROOT, "--cache=disabled",
                            "./perfbench/bench.exe"],
                           cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr, timeout=850)
    if build.returncode != 0 or not os.path.exists(EXE):
        fail("build failed", 1)

    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--rev", git_rev(), "--nproc", str(os.cpu_count() or 0)]
    try:
        run = subprocess.run(cmd, cwd=ROOT, timeout=170)
    except subprocess.TimeoutExpired:
        fail("timed out", 1)
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
