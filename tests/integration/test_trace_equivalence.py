"""Tracing must observe, never perturb — on every backend.

The observability contract has two halves, and this suite pins both:

* **Zero perturbation.**  A traced run produces bit-identical statistics,
  architectural state and memory counters to an untraced run of the same
  (model, workload) on the same backend — for every backend, on
  single- and dual-issue models of each family and on an L2 model (so
  the cache category exercises a two-level hierarchy).
* **Trace-content golden.**  The event stream is not merely harmless, it
  is *correct*: per-category event counts equal the statistics counters
  the engines already maintain (firings per transition, stalls, squashes,
  generated tokens, per-level cache traffic), and all backends emit the
  same firing/stall/squash/token event stream — both after renumbering the
  token sequence numbers and with the raw numbers the decoder assigned.
"""

import pytest

from repro.core.engine import ENGINE_BACKENDS, EngineOptions
from repro.observe.trace import TraceConfig
from repro.processors import build_processor
from repro.workloads import get_workload

MODELS = ("example", "strongarm", "strongarm-ds", "strongarm-l2", "xscale", "xscale-ds")
KERNEL = "crc"
MAX_CYCLES = 4_000
#: Large enough that the ring never evicts (the golden counts need the
#: whole run).
CAPACITY = 2_000_000


def run_once(model, backend, trace=None):
    options = EngineOptions(backend=backend, trace=trace)
    processor = build_processor(model, engine_options=options)
    workload = get_workload(KERNEL, scale=1)
    processor.load_program(workload.program)
    stats = processor.run(max_cycles=MAX_CYCLES)
    return processor, stats


def observable_state(processor, stats):
    return {
        "cycles": stats.cycles,
        "instructions": stats.instructions,
        "stalls": stats.stalls,
        "squashed": stats.squashed,
        "generated_tokens": stats.generated_tokens,
        "retired_by_class": dict(stats.retired_by_class),
        "transition_firings": dict(stats.transition_firings),
        "finish_reason": stats.finish_reason,
        "registers": [processor.register(index) for index in range(16)],
        "flags": processor.flags(),
        "memory": processor.memory.statistics_summary(),
    }


def normalized_events(tracer):
    """Event tuples with token seqs renumbered by first appearance.

    Dense renumbering compares the streams independently of how tokens are
    numbered; the raw-number tests at the end of this module pin the
    numbering itself.
    """
    mapping = {}
    rows = []
    for event in tracer.events:
        category, cycle, a, b, c, d = event
        if category == "cache":
            rows.append(event)
            continue
        seq = b
        if seq is not None and seq not in mapping:
            mapping[seq] = len(mapping)
        rows.append((category, cycle, a, mapping.get(seq), c, d))
    return rows


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("backend", ENGINE_BACKENDS)
def test_traced_run_is_bit_identical(model, backend):
    baseline = observable_state(*run_once(model, backend))
    traced_processor, traced_stats = run_once(
        model, backend, trace=TraceConfig(capacity=CAPACITY)
    )
    assert observable_state(traced_processor, traced_stats) == baseline
    assert traced_processor.tracer is not None
    assert traced_processor.tracer.dropped == 0


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("backend", ENGINE_BACKENDS)
def test_trace_content_matches_statistics(model, backend):
    processor, stats = run_once(model, backend, trace=TraceConfig(capacity=CAPACITY))
    tracer = processor.tracer
    counts = tracer.counts()

    assert dict(tracer.firing_counts()) == dict(stats.transition_firings)
    assert counts.get("stall", 0) == stats.stalls
    assert counts.get("squash", 0) == stats.squashed
    assert counts.get("token", 0) == stats.generated_tokens

    cache_events = [event for event in tracer.events if event[0] == "cache"]
    by_kind = {}
    for _, _, _level, kind, _address, _latency in cache_events:
        by_kind[kind] = by_kind.get(kind, 0) + 1
    memory = processor.memory.statistics_summary()
    levels = [entry for entry in memory.values() if isinstance(entry, dict)]
    hits = sum(level["hits"] for level in levels)
    misses = sum(level["misses"] for level in levels)
    assert by_kind.get("hit", 0) == hits
    assert by_kind.get("miss", 0) == misses
    # Every miss line-fills its level exactly once.
    assert by_kind.get("fill", 0) == misses


@pytest.mark.parametrize("model", MODELS)
def test_event_stream_identical_across_backends(model):
    config = TraceConfig(
        capacity=CAPACITY, categories=("firing", "stall", "squash", "token")
    )
    streams = {
        backend: normalized_events(run_once(model, backend, trace=config)[0].tracer)
        for backend in ENGINE_BACKENDS
    }
    reference = streams["interpreted"]
    assert reference, "interpreted backend recorded no events"
    for backend in ENGINE_BACKENDS[1:]:
        assert streams[backend] == reference, backend


def test_category_filter_limits_recording():
    processor, stats = run_once(
        "strongarm", "interpreted", trace=TraceConfig(capacity=CAPACITY, categories=("firing",))
    )
    counts = processor.tracer.counts()
    assert set(counts) == {"firing"}
    assert sum(counts.values()) == sum(stats.transition_firings.values())


def test_reset_clears_trace_and_second_run_matches():
    config = TraceConfig(capacity=CAPACITY)
    processor, first_stats = run_once("strongarm", "generated", trace=config)
    first_counts = processor.tracer.counts()
    processor.reset()
    assert processor.tracer.recorded == 0
    workload = get_workload(KERNEL, scale=1)
    processor.load_program(workload.program)
    second_stats = processor.run(max_cycles=MAX_CYCLES)
    assert second_stats.cycles == first_stats.cycles
    assert processor.tracer.counts() == first_counts


# -- raw sequence numbers ------------------------------------------------------
# The decoder numbers the instruction tokens it makes, and
# ``Processor.reset()`` restarts that numbering, so the raw event tuples —
# no renumbering — reproduce across re-runs and engines.


@pytest.mark.parametrize("backend", ENGINE_BACKENDS)
def test_rerun_after_reset_records_identical_raw_events(backend):
    processor, _ = run_once("strongarm-ds", backend, trace=TraceConfig(capacity=CAPACITY))
    first = processor.tracer.events
    processor.reset()
    processor.load_program(get_workload(KERNEL, scale=1).program)
    processor.run(max_cycles=MAX_CYCLES)
    second = processor.tracer.events
    assert any(event[0] == "squash" for event in first)
    assert second == first


@pytest.mark.parametrize("model", ("strongarm", "xscale-ds"))
def test_engines_record_identical_raw_events(model):
    config = TraceConfig(capacity=CAPACITY)
    streams = {
        backend: run_once(model, backend, trace=config)[0].tracer.events
        for backend in ENGINE_BACKENDS
    }
    reference = streams["interpreted"]
    first_seq = next(event[3] for event in reference if event[0] == "firing" and event[3] is not None)
    assert first_seq == 0
    for backend in ENGINE_BACKENDS[1:]:
        assert streams[backend] == reference, backend
