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
  and the generated-over-interpreted speedup stays above a stated floor
  (:data:`SPEEDUP_FLOOR`; the CI trace-smoke step runs this as a
  regression gate).
"""

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

#: Tracing-off variants that must be indistinguishable from no config
#: (a disabled config naming ``hostcost`` included).
OFF_TRACES = (
    None,
    TraceConfig(enabled=False),
    TraceConfig(categories=("cache",)),
    TraceConfig(enabled=False, categories=("hostcost",)),
)

#: Generated over interpreted (best-of-3 kcycles/s) on strongarm/crc must
#: stay at or above this.  Five runs at its introduction on a 2-vCPU
#: x86_64 VM (Python 3.11.7) read 2.660, 2.884, 2.938, 2.402 and 2.669;
#: the floor is half the lowest, rounded down, so a slower CI host keeps
#: the same slack the earlier "half the committed BENCH_fig10.json ratio"
#: check allowed (that check enforced 0.5 x 1.454 = 0.73).
SPEEDUP_FLOOR = 1.2


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
        sources.add(emit_module_source(net, schedule, options))
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


def test_generated_speedup_stays_above_floor():
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
        "Tracing overhead - generated/interpreted speedup vs its floor",
        {
            "model": MODEL,
            "kernel": KERNEL,
            "measured_speedup": round(measured_ratio, 3),
            "floor": SPEEDUP_FLOOR,
        },
    )
    # Generous bound: hosts differ, but if tracing support halved the
    # generated backend's advantage something structural broke.
    assert measured_ratio >= SPEEDUP_FLOOR, (
        "generated/interpreted speedup %.3f fell below its floor %.2f"
        % (measured_ratio, SPEEDUP_FLOOR)
    )
