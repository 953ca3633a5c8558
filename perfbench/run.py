#!/usr/bin/env python3
"""Run one MiniSulong benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds the
benchmark package (perfbench/CMakeLists.txt: the MiniSulong libraries,
msulongd and the two benchmark binaries) into $CARGO_TARGET_DIR, or
.bench_build when that is unset; later runs only check that the build
is up to date. Build output goes to stderr.

--trace 0 runs the untraced binary and prints the end-to-end metrics;
--trace 1 runs the traced binary and prints the per-layer metrics, and
leaves its spans (Chrome trace-event JSON) in .bench_results/. The last
line of stdout is always the result object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
The exit code is 0 only when a result was printed.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["matrix-cold", "peak-exec", "analyze", "daemon-warm"]
# Self-test faults (perfbench/selftest.py); never used by real runs.
INJECTIONS = ["peak-ref", "corpus-label", "clean-bug", "daemon-payload"]
RESULTS_DIR = ".bench_results"


def log(message):
    print("run.py: " + message, file=sys.stderr, flush=True)


def build(build_dir, targets):
    """Configure once, then bring @targets up to date. False on failure."""
    os.makedirs(build_dir, exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", build_dir, "-j", jobs, "--target"] +
                 targets)
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=860)
        except (OSError, subprocess.TimeoutExpired) as error:
            log("build step failed: %s" % error)
            return False
        if done.returncode != 0:
            log("build step failed: " + " ".join(step))
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    parser.add_argument("--inject", choices=INJECTIONS, default=None,
                        help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        parser.error("--seed must be >= 0 and --seconds in 1..60")

    os.chdir(ROOT)
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(build_dir), "perfbench")
    binary = "perfbench_traced" if args.trace else "perfbench"
    if not build(build_dir, [binary, "msulongd"]):
        return 2
    os.makedirs(RESULTS_DIR, exist_ok=True)

    command = [os.path.join(build_dir, binary),
               "--workload", args.workload,
               "--seed", str(args.seed),
               "--seconds", str(args.seconds),
               "--inputs", os.path.join("perfbench", "inputs"),
               "--daemon", os.path.join(build_dir, "msulongd"),
               "--work-dir", RESULTS_DIR]
    if args.inject:
        command += ["--inject", args.inject]
    # Set-up is timed from this instant: process creation, loading and
    # static initialization of the benchmark binary count as set-up.
    command += ["--launch-ns", str(time.monotonic_ns())]
    # Its own process group, so a timeout also stops the daemon it runs.
    child = subprocess.Popen(command, stdout=subprocess.PIPE,
                             stderr=sys.stderr, start_new_session=True)
    try:
        stdout, _ = child.communicate(timeout=170)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        log("benchmark binary timed out")
        return 3
    lines = stdout.decode(errors="replace").strip().splitlines()
    if child.returncode != 0 or not lines:
        log("benchmark binary failed with exit code %d" % child.returncode)
        return child.returncode or 1
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        log("malformed result line")
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
