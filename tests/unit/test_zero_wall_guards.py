"""Zero/sub-tick wall-time measurements must degrade to 0.0, never raise.

A sufficiently fast run on a coarse host clock (or a mocked result in a
test) reports ``wall_seconds == 0``.  Every throughput-style division in
the codebase must treat that as "no measurable throughput" — returning
``0.0`` — rather than raising ``ZeroDivisionError`` or leaking ``inf``
into tables and JSON exports.  This file pins the guard at every site:
the core statistics properties (which were always guarded), the analysis
``speedup`` helper, and the campaign speedup table.
"""

import math

from repro.analysis.metrics import BenchmarkResult, speedup
from repro.campaign.aggregate import speedup_table
from repro.campaign.store import RunResult
from repro.core.statistics import SimulationStatistics


def bench_result(wall_seconds, cycles=1000):
    return BenchmarkResult(
        simulator="toy",
        workload="crc",
        cycles=cycles,
        instructions=cycles // 2,
        wall_seconds=wall_seconds,
        final_r0=0,
    )


def run_result(engine, wall_seconds, cycles=1000, repeat=0):
    return RunResult(
        fingerprint="fp-%s-%d" % (engine, repeat),
        campaign="c",
        run_id="r-%s-%d" % (engine, repeat),
        processor="strongarm",
        workload="crc",
        scale=1,
        engine=engine,
        backend=engine,
        repeat=repeat,
        cycles=cycles,
        instructions=cycles // 2,
        final_r0=0,
        finish_reason="halt",
        wall_seconds=wall_seconds,
    )


def test_run_result_cpi_guards_zero_instructions():
    """A run that retired nothing has no measurable CPI — 0.0, not inf."""
    empty = run_result("interpreted", 0.5, cycles=0)
    assert empty.instructions == 0
    assert empty.cpi == 0.0
    assert math.isfinite(empty.cpi)
    # The guard must not disturb the normal path.
    assert run_result("interpreted", 0.5, cycles=1000).cpi == 2.0


def test_simulation_statistics_rates_guard_zero_wall():
    stats = SimulationStatistics()
    stats.cycles = 1000
    stats.instructions = 500
    stats.wall_time_seconds = 0.0
    assert stats.cycles_per_second == 0.0
    assert stats.instructions_per_second == 0.0
    stats.wall_time_seconds = -1.0  # clock skew degrades the same way
    assert stats.cycles_per_second == 0.0


def test_benchmark_result_rate_guards_zero_wall():
    assert bench_result(0.0).cycles_per_second == 0.0
    assert bench_result(0.0).mcycles_per_second == 0.0


def test_analysis_speedup_returns_zero_for_unmeasurable_baseline():
    fast = bench_result(0.5)
    stalled_baseline = bench_result(0.0)
    assert speedup(fast, stalled_baseline) == 0.0
    assert speedup(stalled_baseline, fast) == 0.0


def test_speedup_table_zero_baseline_yields_zero_not_inf():
    results = [
        run_result("interpreted", 0.0),
        run_result("generated", 0.5),
    ]
    rows = speedup_table(results)
    assert len(rows) == 1
    assert rows[0]["speedup"] == 0.0
    assert all(math.isfinite(v) for v in rows[0].values() if isinstance(v, float))
