#!/usr/bin/env python3
"""The perf ledger's history: run the benchmark, append it, show what moved.

Runs ``perfbench/run.py`` (untraced, end to end) for every workload
``BENCHMARK.json`` declares, at the held-out seed and the benchmark's own
run length, and appends one JSON line per workload to the checked-in
``BENCH_ledger.jsonl``::

    {"record": {...the run's provenance...}, "metrics": {...}}

For each workload it prints every end-to-end metric beside that workload's
previous clean ledger line at the same seed and run length, with the
relative change, and flags a change worse than the bound
``BENCHMARK.json`` fixes for the metric.  A run with failed operations is
reported but not appended.  A run whose record has no commit
(``git_sha: "unknown"``, measured outside a git checkout) is refused:
the script exits non-zero without appending it, since a ledger line must
tie its numbers to a commit.  One run per side is a trend line, not a gain
claim: a claim still needs interleaved pairs.  Run from the repository
root::

    python3 scripts/ledger.py
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LEDGER = ROOT / "BENCH_ledger.jsonl"
BENCHMARK = ROOT / "BENCHMARK.json"
# perfbench's held-out seed: every ledger line is measured at it.
SEED = 7919


def load_report():
    """``perfbench/report.py`` as a module, for its ``run`` (one benchmark process)."""
    spec = importlib.util.spec_from_file_location("perfbench_report", ROOT / "perfbench" / "report.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def read_ledger(path):
    """The ledger's entries, oldest first (none if the file does not exist)."""
    if not path.is_file():
        return []
    return [json.loads(line) for line in path.read_text().splitlines() if line.strip()]


def previous_entry(entries, record):
    """The latest clean entry comparable with ``record``, or None.

    Comparable means the same workload, seed and run length; clean means
    no failed operations.
    """
    for entry in reversed(entries):
        other = entry["record"]
        if (
            other["workload"] == record["workload"]
            and other.get("seed") == record.get("seed")
            and other.get("seconds") == record.get("seconds")
            and not other.get("failures")
        ):
            return entry
    return None


def appendable(record):
    """Why ``record`` may not be appended to the ledger, or ``None`` if it may."""
    if record.get("git_sha", "unknown") == "unknown":
        return "no commit (git_sha %r): run it from a git checkout" % record.get("git_sha")
    if record.get("failures"):
        return "failed operations: %r" % record["failures"]
    return None


def value_of(metrics, name):
    metric = metrics.get(name)
    return None if metric is None else metric["value"]


def deltas(before, after, end_to_end):
    """Compare two ``metrics`` dicts on the ``end_to_end`` metric specs.

    Returns one ``(name, unit, before, after, change, worse)`` row per spec:
    ``change`` is relative to ``before`` (None when either value is missing
    or ``before`` is 0); ``worse`` is true when the metric moved the wrong
    way by more than its ``bound``.
    """
    rows = []
    for spec in end_to_end:
        old, new = value_of(before, spec["name"]), value_of(after, spec["name"])
        change = None if old is None or new is None or old == 0 else (new - old) / abs(old)
        worse = change is not None and (
            change < -spec["bound"] if spec["better"] == "higher" else change > spec["bound"]
        )
        rows.append((spec["name"], spec["unit"], old, new, change, worse))
    return rows


def describe(entry):
    record = entry["record"]
    return "seed %s, repro %s, %s" % (
        record.get("seed"),
        record.get("repro_version"),
        str(record.get("git_sha"))[:10],
    )


def format_rows(rows):
    def number(value):
        return "n/a" if value is None else "%.4g" % value

    lines = []
    for name, unit, old, new, change, worse in rows:
        lines.append(
            "  %-20s %10s -> %-10s %-13s %8s%s"
            % (
                name,
                number(old),
                number(new),
                unit,
                "n/a" if change is None else "%+.1f%%" % (100 * change),
                "  WORSE THAN BOUND" if worse else "",
            )
        )
    return lines


def main():
    benchmark = json.loads(BENCHMARK.read_text())
    report = load_report()
    entries = read_ledger(LEDGER)
    status = 0
    for workload in (spec["name"] for spec in benchmark["workloads"]):
        record, result = report.run(workload, SEED, benchmark["run_seconds"], 0)
        entry = {"record": record, "metrics": result["metrics"]}
        previous = previous_entry(entries, record)
        print("%s (%s)" % (workload, describe(entry)))
        if previous is None:
            print("  no previous ledger line at this seed and run length")
        else:
            print("  against the previous line (%s):" % describe(previous))
            rows = deltas(previous["metrics"], entry["metrics"], benchmark["end_to_end"])
            print("\n".join(format_rows(rows)))
        refusal = appendable(record)
        if refusal is not None:
            print("  not appended: %s" % refusal)
            if record.get("git_sha", "unknown") == "unknown":
                status = 2
            continue
        with LEDGER.open("a") as handle:
            handle.write(json.dumps(entry, sort_keys=True) + "\n")
        entries.append(entry)
    if status:
        sys.stderr.write("ledger: refused a record with no commit; nothing of it was appended\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
