#!/usr/bin/env python3
"""Smoke test of the perf-ledger benchmark itself.

    python3 perfbench/smoke.py

Checks, at minimal size (``--quick``):

* every workload, untraced and traced, exits 0 and prints a last line with
  exactly ``correct``, ``attempted``, ``failed`` and ``metrics``, with no
  failed operation;
* the metrics are exactly those ``BENCHMARK.json`` names for the mode
  (``end_to_end`` untraced, ``per_layer`` traced), each with its unit;
* a tampered expected cycle count, and a cell with no recorded count, are
  each reported as a failed operation;
* in a directory holding only ``BENCHMARK.json`` and ``perfbench/`` the
  benchmark exits non-zero without printing a result.

Exits 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(args, cwd=ROOT):
    command = [sys.executable, "perfbench/run.py", *args]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=300, check=False)


def last_json(proc):
    lines = proc.stdout.strip().splitlines()
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


def main():
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []

    def check(ok, message):
        print("%s %s" % ("ok  " if ok else "FAIL", message))
        if not ok:
            problems.append(message)

    for workload in (w["name"] for w in benchmark["workloads"]):
        for trace, declared in ((0, "end_to_end"), (1, "per_layer")):
            label = "%s --trace %d" % (workload, trace)
            proc = run(["--workload", workload, "--seed", "1", "--trace", str(trace), "--quick"])
            result = last_json(proc)
            check(proc.returncode == 0 and result is not None, label + ": exits 0 with a JSON last line")
            if result is None:
                sys.stderr.write(proc.stderr[-2000:])
                continue
            check(set(result) == RESULT_KEYS, label + ": result keys")
            check(
                result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                label + ": %d attempted, %d failed" % (result["attempted"], result["failed"]),
            )
            wanted = {m["name"]: m["unit"] for m in benchmark[declared]}
            got = {name: m.get("unit") for name, m in result["metrics"].items()}
            check(got == wanted, label + ": metrics and units match BENCHMARK.json " + declared)
            check(
                all(isinstance(m.get("value"), (int, float)) for m in result["metrics"].values()),
                label + ": every metric has a numeric value",
            )

    (ROOT / ".perfbench").mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="smoke-", dir=ROOT / ".perfbench"))
    try:
        expected = json.loads((BENCH_DIR / "expected.json").read_text())
        expected["strongarm"]["adpcm@1"][0] += 1
        del expected["xscale"]["adpcm@1"]
        tampered = scratch / "expected.json"
        tampered.write_text(json.dumps(expected))
        proc = run(["--workload", "fig10-generated", "--quick", "--expected", str(tampered)])
        result = last_json(proc)
        record = {}
        if len(proc.stdout.strip().splitlines()) >= 2:
            record = json.loads(proc.stdout.strip().splitlines()[-2][len("record: "):])
        failed_cells = {tuple(f["cell"]) for f in record.get("failures", [])}
        check(
            result is not None
            and not result["correct"]
            and ("strongarm", "adpcm@1") in failed_cells,
            "a tampered expected cycle count is a failed operation",
        )
        check(
            result is not None and ("xscale", "adpcm@1") in failed_cells,
            "a cell with no recorded count is a failed operation",
        )

        bare = scratch / "bare"
        shutil.copytree(BENCH_DIR, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = run(["--workload", "fig10-generated", "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=bare)
        check(
            proc.returncode != 0 and last_json(proc) is None,
            "without the program's sources it exits non-zero and prints no result",
        )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    print("%d problem(s)" % len(problems))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
