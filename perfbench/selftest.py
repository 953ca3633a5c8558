#!/usr/bin/env python3
"""The benchmark's own tests: every correctness check can fail.

    python3 perfbench/selftest.py

Runs each workload for one second as it is, which must report no failed
op, and then once with a fault planted in one of its references or
results, which must make the run count ops as failed (while it still
prints a result with correct = true: the failed ops are accounted for):

    peak-exec    --inject peak-ref        a wrong reference output
    matrix-cold  --inject corpus-label    a mislabelled corpus verdict
    analyze      --inject corpus-label    a mislabelled corpus verdict
    matrix-cold  --inject clean-bug       a clean program given a bug report
    analyze      --inject clean-bug       a clean program given a bug report
    daemon-warm  --inject daemon-payload  a daemon reply payload that
                                          differs from the library's
Exits 0 when every case behaves, 1 otherwise.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
CASES = [
    ("peak-exec", None),
    ("matrix-cold", None),
    ("analyze", None),
    ("daemon-warm", None),
    ("peak-exec", "peak-ref"),
    ("matrix-cold", "corpus-label"),
    ("analyze", "corpus-label"),
    ("matrix-cold", "clean-bug"),
    ("analyze", "clean-bug"),
    ("daemon-warm", "daemon-payload"),
]


def run(workload, inject):
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", "1", "--seconds", "1",
               "--trace", "0"]
    if inject:
        command += ["--inject", inject]
    done = subprocess.run(command, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, timeout=900)
    lines = done.stdout.decode().strip().splitlines()
    if done.returncode != 0 or not lines:
        return None
    return json.loads(lines[-1])


def main():
    ok = True
    for workload, inject in CASES:
        result = run(workload, inject)
        if result is None:
            passed, detail = False, "no result"
        else:
            failed = result["failed"]
            detail = "%d of %d ops failed" % (failed, result["attempted"])
            passed = result["correct"] and (failed > 0 if inject
                                            else failed == 0)
        print("%-4s %-12s %-15s %s" % ("ok" if passed else "FAIL", workload,
                                       inject or "(none)", detail))
        ok = ok and passed
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
