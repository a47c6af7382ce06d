#!/usr/bin/env python3
"""Gate on the paper's Fig. 10 claim: the generated simulator beats SimpleScalar.

Runs the ``fig10-generated`` perf-ledger workload end to end and reads
``generated_over_simplescalar`` — the generated engine's kcycles/s over the
hand-written SimpleScalar-style simulator's, both measured in one process
on the same programs, so host speed cancels out — from the ``record:``
line.  A model that stalls more simulates more cycles per host second for
free, so the claim is also stated per instruction: this script runs
``SimpleScalarLikeSimulator`` on the fig10 programs in process (it is
deterministic) for ``ss_cpi`` and scales the ratio by
``ss_cpi / sim_cpi``.  Exits non-zero when either ratio is below its
floor (:data:`FLOOR`, :data:`FLOOR_INSTR`), or when the benchmark itself
fails.  Run from the repository root::

    python3 scripts/paper_claim.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: The paper's claim is generated at least as fast as SimpleScalar-style
#: (1.0).  Each floor sits at least 0.10 below the lowest of five 10 s
#: runs on a 2-vCPU x86_64 VM (Python 3.11.7).  With the emitted fetch
#: specialised (same-line L1I hits, inline BTB lookup, direct entry
#: deposit, run-local front-end counters), five runs read 3.236, 3.188,
#: 3.239, 3.225 and 3.264 per cycle, and 2.446, 2.410, 2.449, 2.438 and
#: 2.468 per instruction (sim_cpi 1.7179, ss_cpi 1.2988).
#: Raise both as the generated engine gets faster; never lower either.
FLOOR = 3.05
FLOOR_INSTR = 2.3

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


def simplescalar_cpi():
    """Cycles per instruction of ``SimpleScalarLikeSimulator`` on the fig10 programs."""
    sys.path.insert(0, str(ROOT / "src"))
    from repro.baseline.simplescalar import SimpleScalarLikeSimulator
    from repro.workloads import get_workload, workload_names

    cycles = instructions = 0
    for name in workload_names():
        simulator = SimpleScalarLikeSimulator()
        simulator.load_program(get_workload(name, scale=1).program)
        stats = simulator.run()
        cycles += stats.cycles
        instructions += stats.instructions
    return cycles / instructions


def instruction_ratio(cycle_ratio, ss_cpi, sim_cpi):
    """``generated_over_simplescalar`` restated in simulated instructions per second."""
    if cycle_ratio is None or not sim_cpi:
        return None
    return cycle_ratio * ss_cpi / sim_cpi


def verdicts(cycle_ratio, instr_ratio):
    """``[(label, ratio, floor, holds)]`` for the cycle and instruction claims."""
    rows = []
    for label, ratio, floor in (
        ("generated_over_simplescalar", cycle_ratio, FLOOR),
        ("generated_over_simplescalar_instr", instr_ratio, FLOOR_INSTR),
    ):
        rows.append((label, ratio, floor, ratio is not None and ratio >= floor))
    return rows


def main():
    ratio, result = measured_ratio()
    if result["failed"]:
        print("paper claim: the benchmark reported %d failed operations" % result["failed"])
        return 1
    ss_cpi = simplescalar_cpi()
    sim_cpi = result["metrics"]["sim_cpi"]["value"]
    print("sim_cpi %.4f, ss_cpi %.4f" % (sim_cpi, ss_cpi))
    holds = True
    for label, value, floor, ok in verdicts(ratio, instruction_ratio(ratio, ss_cpi, sim_cpi)):
        holds = holds and ok
        print(
            "paper claim %s: %s = %s (floor %.2f)"
            % ("holds" if ok else "FAILS", label, "n/a" if value is None else "%.3f" % value, floor)
        )
    return 0 if holds else 1


if __name__ == "__main__":
    sys.exit(main())
