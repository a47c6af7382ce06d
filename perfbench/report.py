#!/usr/bin/env python3
"""Print the whole perf ledger in one go.

Runs every workload named in ``BENCHMARK.json`` twice, one process at a
time: untraced for the end-to-end metrics and traced for the per-layer
table.  Prints both tables with units, the failed/attempted operation
counts, and the generated-vs-simplescalar-arm throughput ratio (for
information only: the baseline shares ``repro.isa`` and ``repro.memory``,
so a gain in a shared layer moves both sides).

Each run measures for ``run_seconds`` from ``BENCHMARK.json``.

    python3 perfbench/report.py [--seed N]
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def run(workload, seed, seconds, trace):
    """One benchmark process; returns ``(record, result)`` from its output."""
    command = [
        sys.executable,
        str(BENCH_DIR / "run.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit("%s exited with %d" % (" ".join(command), proc.returncode))
    lines = proc.stdout.strip().splitlines()
    record = json.loads(lines[-2][len("record: "):])
    return record, json.loads(lines[-1])


def table(title, metrics, results, extra_rows=()):
    workloads = list(results)
    width = max(len(w) for w in workloads) + 2
    print("\n%s" % title)
    print("%-36s %-14s" % ("metric", "unit") + "".join("%*s" % (width, w) for w in workloads))
    for spec in metrics:
        name = spec["name"]
        cells = []
        for workload in workloads:
            metric = results[workload]["metrics"].get(name)
            cells.append("%*.5g" % (width, metric["value"]) if metric else "%*s" % (width, "-"))
        print("%-36s %-14s" % (name, spec["unit"]) + "".join(cells))
    for label, unit, values in extra_rows:
        print("%-36s %-14s" % (label, unit) + "".join("%*s" % (width, v) for v in values))


def main(argv=None):
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    seconds = benchmark["run_seconds"]

    names = [w["name"] for w in benchmark["workloads"]]
    untraced, traced, records = {}, {}, {}
    for name in names:
        records[name], untraced[name] = run(name, args.seed, seconds, 0)
        _, traced[name] = run(name, args.seed, seconds, 1)

    def ops(results):
        return ["%d/%d" % (results[n]["failed"], results[n]["attempted"]) for n in names]

    ratios = []
    for name in names:
        ratio = records[name].get("generated_over_simplescalar")
        ratios.append("%.3f" % ratio if ratio is not None else "-")
    print("seed %d, %s s per run, git %s" % (args.seed, seconds, records[names[0]]["git_sha"][:12]))
    table(
        "End to end (untraced)",
        benchmark["end_to_end"],
        untraced,
        [
            ("failed/attempted", "ops", ops(untraced)),
            ("sim/ss kcycles ratio (info)", "ratio", ratios),
        ],
    )
    table(
        "Per layer (traced)",
        benchmark["per_layer"],
        traced,
        [("failed/attempted", "ops", ops(traced))],
    )
    failed = any(not r["correct"] for r in list(untraced.values()) + list(traced.values()))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
