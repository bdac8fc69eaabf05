#!/usr/bin/env python3
"""Builds the tempest end-to-end benchmark and runs one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload browse|order|scan --seed N \
        --seconds S --trace 0|1

The first call configures and builds perfbench/ (which compiles the server
from src/) into .bench_build, or into $CARGO_TARGET_DIR when that is set;
later calls only rebuild what changed. The driver's output is passed
through; its last line is the result object. The exit status is the
driver's: 0 when every response was correct, non-zero otherwise.
"""

import argparse
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Seconds the driver may take; the build before it is not counted.
DRIVER_TIMEOUT_S = 170


def build(build_dir):
    """Configures (once) and builds the benchmark; build logs go to stderr."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build failed: " + " ".join(step))


def run_driver(command):
    """Runs the driver in its own process group, so that on a timeout the
    driver and the server it started are stopped together."""
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        sys.exit("perfbench: driver timed out after %d s" % DRIVER_TIMEOUT_S)
    return proc.returncode, out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or
                             ".bench_build")
    started = time.monotonic()
    build(build_dir)
    print("perfbench: build took %.1f s" % (time.monotonic() - started),
          file=sys.stderr)

    trace_dir = os.path.join(build_dir, "trace")
    os.makedirs(trace_dir, exist_ok=True)
    code, out = run_driver([
        os.path.join(build_dir, "perfbench_load"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--bin", build_dir, "--out", trace_dir])
    sys.stdout.write(out)
    sys.exit(code)


if __name__ == "__main__":
    main()
