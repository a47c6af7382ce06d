"""The perf ledger's delta and bound logic (``scripts/ledger.py``) on literal dicts.

Nothing here runs the benchmark: the checks feed hand-written metrics to
the comparison that ``scripts/ledger.py`` prints after each run, and read
the checked-in ``BENCH_ledger.jsonl``.
"""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def ledger():
    spec = importlib.util.spec_from_file_location("ledger", ROOT / "scripts" / "ledger.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


END_TO_END = [
    {"name": "sim_kcycles_per_s", "unit": "kcycles/s", "better": "higher", "bound": 0.15},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.03},
]


def metrics(**values):
    return {name: {"value": value, "unit": "u"} for name, value in values.items()}


def test_changes_within_their_bounds_are_not_flagged(ledger):
    rows = ledger.deltas(
        metrics(sim_kcycles_per_s=100.0, peak_rss_mb=30.0),
        metrics(sim_kcycles_per_s=86.0, peak_rss_mb=30.8),
        END_TO_END,
    )
    assert [row[0] for row in rows] == ["sim_kcycles_per_s", "peak_rss_mb"]
    assert rows[0][2:4] == (100.0, 86.0)
    assert rows[0][4] == pytest.approx(-0.14)
    assert rows[1][4] == pytest.approx(0.8 / 30)
    assert not rows[0][5] and not rows[1][5]


def test_a_change_worse_than_its_bound_is_flagged_in_the_metric_direction(ledger):
    slower, fatter = ledger.deltas(
        metrics(sim_kcycles_per_s=100.0, peak_rss_mb=30.0),
        metrics(sim_kcycles_per_s=84.0, peak_rss_mb=31.0),
        END_TO_END,
    )
    assert slower[5] and fatter[5]
    faster, leaner = ledger.deltas(
        metrics(sim_kcycles_per_s=100.0, peak_rss_mb=30.0),
        metrics(sim_kcycles_per_s=150.0, peak_rss_mb=20.0),
        END_TO_END,
    )
    assert faster[4] == pytest.approx(0.5) and not faster[5]
    assert leaner[4] == pytest.approx(-1 / 3) and not leaner[5]


def test_missing_none_or_zero_values_give_no_change(ledger):
    rows = ledger.deltas(
        metrics(sim_kcycles_per_s=0.0), metrics(sim_kcycles_per_s=5.0, peak_rss_mb=None), END_TO_END
    )
    assert rows[0][4] is None and rows[1][2:5] == (None, None, None)
    assert not any(row[5] for row in rows)
    assert "n/a" in ledger.format_rows(rows)[1]


def record(workload, seed=7919, seconds=20.0, failures=()):
    return {"workload": workload, "seed": seed, "seconds": seconds, "failures": list(failures)}


def test_the_previous_line_is_the_latest_of_its_workload(ledger, tmp_path):
    path = tmp_path / "ledger.jsonl"
    assert ledger.read_ledger(path) == []
    entries = [
        {"record": record("a"), "metrics": {}},
        {"record": record("b"), "metrics": {}},
        {"record": record("a"), "metrics": {}},
    ]
    path.write_text("\n".join(json.dumps(entry) for entry in entries) + "\n\n")
    assert ledger.read_ledger(path) == entries
    assert ledger.previous_entry(entries, record("a")) is entries[2]
    assert ledger.previous_entry(entries, record("b")) is entries[1]
    assert ledger.previous_entry(entries, record("c")) is None


def test_the_previous_line_has_the_same_seed_and_run_length(ledger):
    entries = [
        {"record": record("a"), "metrics": {}},
        {"record": record("a", seed=1), "metrics": {}},
        {"record": record("a", seconds=10.0), "metrics": {}},
    ]
    assert ledger.previous_entry(entries, record("a")) is entries[0]
    assert ledger.previous_entry(entries, record("a", seed=1)) is entries[1]
    assert ledger.previous_entry(entries, record("a", seed=3)) is None


def test_a_line_with_failed_operations_is_never_the_previous_line(ledger):
    entries = [
        {"record": record("a"), "metrics": {}},
        {"record": record("a", failures=["crc32 on xscale"]), "metrics": {}},
    ]
    assert ledger.previous_entry(entries, record("a")) is entries[0]
    assert ledger.previous_entry(entries[1:], record("a")) is None


def test_a_record_with_no_commit_is_refused(ledger):
    clean = dict(record("a"), git_sha="0123abc")
    assert ledger.appendable(clean) is None
    assert "git_sha" in ledger.appendable(dict(clean, git_sha="unknown"))
    assert "git_sha" in ledger.appendable(record("a"))
    assert "failed" in ledger.appendable(dict(clean, failures=["crc32 on xscale"]))


def test_the_checked_in_ledger_covers_every_workload_and_metric(ledger):
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    entries = ledger.read_ledger(ledger.LEDGER)
    for workload in benchmark["workloads"]:
        latest = record(workload["name"], ledger.SEED, float(benchmark["run_seconds"]))
        entry = ledger.previous_entry(entries, latest)
        assert entry is not None, workload["name"]
        assert {spec["name"] for spec in benchmark["end_to_end"]} <= set(entry["metrics"])


def test_the_runner_is_perfbenchs_own(ledger):
    assert callable(ledger.load_report().run)
