"""Tracing overhead gate — observability must be free when off.

Two claims, one deterministic and one measured:

* **Byte identity (deterministic).**  With tracing off — no config, a
  disabled config, or only non-emission categories — the generated
  backend's cache key and emitted module source are exactly what a
  trace-unaware build produces.  This is the strongest possible
  "zero overhead when off" statement for the generated backend:
  the executed source cannot differ because it is the same text.
* **Throughput (measured).**  A generated engine built with a *disabled*
  ``TraceConfig`` runs within noise of one built with no config at all,
  and the generated-over-interpreted speedup stays within the ballpark
  the committed ``BENCH_fig10.json`` baseline records for this figure
  (the CI trace-smoke step runs this as a regression gate).
"""

import json
import os
import time

from repro.codegen import codegen_key
from repro.codegen.emit import emit_module_source
from repro.core.engine import EngineOptions, SimulationEngine
from repro.describe.elaborate import elaborate_net
from repro.observe.trace import TraceConfig
from repro.processors import build_processor, get_spec
from repro.workloads import get_workload

from conftest import BENCH_SCALE, record_result

MODEL = "strongarm"
KERNEL = "crc"
ROUNDS = 3

#: Tracing-off variants that must be indistinguishable from no config.
OFF_TRACES = (None, TraceConfig(enabled=False), TraceConfig(categories=("cache",)))

BASELINE_PATH = os.path.join(os.path.dirname(__file__), "..", "BENCH_fig10.json")


def _run_once(trace):
    processor = build_processor(
        MODEL, engine_options=EngineOptions(backend="generated", trace=trace)
    )
    workload = get_workload(KERNEL, scale=BENCH_SCALE)
    processor.load_program(workload.program)
    start = time.perf_counter()
    stats = processor.run(max_cycles=2_000_000)
    wall = time.perf_counter() - start
    return stats, wall


def _best_kcycles(trace):
    best = 0.0
    cycles = None
    for _ in range(ROUNDS):
        stats, wall = _run_once(trace)
        if cycles is None:
            cycles = stats.cycles
        assert stats.cycles == cycles, "non-deterministic simulation"
        if wall > 0:
            best = max(best, stats.cycles / wall / 1e3)
    return best


def test_tracing_off_emission_is_byte_identical():
    net, _decoder, _core, _memory, _semantics = elaborate_net(get_spec(MODEL))
    schedule = SimulationEngine(net).schedule
    keys = set()
    sources = set()
    for trace in OFF_TRACES:
        options = EngineOptions(backend="generated", trace=trace)
        keys.add(codegen_key(net, options))
        sources.add(emit_module_source(net, schedule, options)[0])
    assert len(keys) == 1, "tracing-off TraceConfig changed the codegen cache key"
    assert len(sources) == 1, "tracing-off TraceConfig changed the emitted source"
    assert "TRF(" not in next(iter(sources))


def test_disabled_trace_runs_within_noise_of_no_trace():
    plain = _best_kcycles(None)
    disabled = _best_kcycles(TraceConfig(enabled=False))
    ratio = disabled / plain if plain else 0.0
    record_result(
        "Tracing overhead - disabled-trace vs no-trace (generated backend)",
        {
            "model": MODEL,
            "kernel": KERNEL,
            "no_trace_kc_per_sec": round(plain, 3),
            "disabled_trace_kc_per_sec": round(disabled, 3),
            "ratio": round(ratio, 3),
        },
    )
    # Same emitted module, same engine path: anything below this is a real
    # regression, not timer noise.
    assert ratio > 0.7, (
        "disabled tracing costs measurable throughput (ratio=%.3f)" % ratio
    )


def test_generated_speedup_stays_near_committed_baseline():
    with open(BASELINE_PATH, encoding="utf-8") as handle:
        baseline = json.load(handle)
    geomeans = baseline["kcycles_per_sec_geomean"]
    baseline_ratio = geomeans["generated"] / geomeans["interpreted"]

    generated = _best_kcycles(None)
    interpreted_best = 0.0
    for _ in range(ROUNDS):
        processor = build_processor(
            MODEL, engine_options=EngineOptions(backend="interpreted")
        )
        workload = get_workload(KERNEL, scale=BENCH_SCALE)
        processor.load_program(workload.program)
        start = time.perf_counter()
        stats = processor.run(max_cycles=2_000_000)
        wall = time.perf_counter() - start
        if wall > 0:
            interpreted_best = max(interpreted_best, stats.cycles / wall / 1e3)

    measured_ratio = generated / interpreted_best if interpreted_best else 0.0
    record_result(
        "Tracing overhead - generated/interpreted speedup vs committed baseline",
        {
            "model": MODEL,
            "kernel": KERNEL,
            "measured_speedup": round(measured_ratio, 3),
            "baseline_speedup": round(baseline_ratio, 3),
        },
    )
    # Generous bound: hosts differ, but if tracing support halved the
    # generated backend's advantage something structural broke.
    assert measured_ratio >= 0.5 * baseline_ratio, (
        "generated/interpreted speedup %.3f fell below half the committed "
        "baseline %.3f" % (measured_ratio, baseline_ratio)
    )
