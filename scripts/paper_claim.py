#!/usr/bin/env python3
"""Gate on the paper's Fig. 10 claim: the generated simulator beats SimpleScalar.

Runs the ``fig10-generated`` perf-ledger workload end to end and reads
``generated_over_simplescalar`` — the generated engine's kcycles/s over the
hand-written SimpleScalar-style simulator's, both measured in one process
on the same programs, so host speed cancels out — from the ``record:``
line.  Exits non-zero when the ratio is below :data:`FLOOR`, or when the
benchmark itself fails.  Run from the repository root::

    python3 scripts/paper_claim.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: The paper's claim is generated at least as fast as SimpleScalar-style
#: (1.0); the floor sits at 1.3, at least 0.10 below the lowest of five
#: 10 s runs on a 2-vCPU x86_64 VM (Python 3.11.7), which read 1.417,
#: 1.444, 1.421, 1.457 and 1.411.  Raise it as the generated engine gets
#: faster; never lower it.
FLOOR = 1.3

#: Seconds of timed simulation the benchmark runs.
SECONDS = 10


def measured_ratio():
    """Run the benchmark; return ``(ratio, result)`` from its last two lines."""
    completed = subprocess.run(
        [
            sys.executable,
            str(ROOT / "perfbench" / "run.py"),
            "--workload",
            "fig10-generated",
            "--seconds",
            str(SECONDS),
        ],
        cwd=ROOT,
        check=True,
        stdout=subprocess.PIPE,
        text=True,
    )
    lines = completed.stdout.strip().splitlines()
    record = next(line for line in reversed(lines) if line.startswith("record: "))
    ratio = json.loads(record[len("record: "):])["generated_over_simplescalar"]
    return ratio, json.loads(lines[-1])


def main():
    ratio, result = measured_ratio()
    if result["failed"]:
        print("paper claim: the benchmark reported %d failed operations" % result["failed"])
        return 1
    verdict = "holds" if ratio is not None and ratio >= FLOOR else "FAILS"
    print(
        "paper claim %s: generated_over_simplescalar = %s (floor %.2f)"
        % (verdict, "n/a" if ratio is None else "%.3f" % ratio, FLOOR)
    )
    return 0 if verdict == "holds" else 1


if __name__ == "__main__":
    sys.exit(main())
