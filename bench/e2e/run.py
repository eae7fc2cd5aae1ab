#!/usr/bin/env python3
"""Build sfa_bench from source, then run one workload.

    python3 bench/e2e/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  The first run configures and builds the
benchmark package (bench/e2e/CMakeLists.txt, which builds the library through
the repository's own CMakeLists.txt) into .bench_build/sfa_e2e; later runs
rebuild only what changed.  Build
output goes to stderr, so the last line on stdout is the benchmark's JSON
result.  A traced run (--trace 1) also writes a Chrome trace to
.bench_build/sfa_e2e/trace-<workload>.json.  Extra arguments (for example
--scale smoke) are passed through to sfa_bench.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, ".bench_build", "sfa_e2e")
# One run's budget: --seconds of measuring plus set-up, well under three
# minutes.
RUN_TIMEOUT_S = 170


def build():
    """Configure (once) and build; False when either step fails."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j", str(min(4, os.cpu_count() or 1))])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True)
    parser.add_argument("--seconds", required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args, extra = parser.parse_known_args()

    if not build():
        print("run.py: building sfa_bench failed", file=sys.stderr)
        return 2
    cmd = [os.path.join(BUILD, "sfa_bench"), "--workload", args.workload,
           "--seed", args.seed, "--seconds", args.seconds, "--trace", args.trace]
    if args.trace == "1":
        cmd += ["--trace-out", os.path.join(BUILD, "trace-%s.json" % args.workload)]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd + extra, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("run.py: sfa_bench exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
