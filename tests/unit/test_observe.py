"""Unit tests for the ``repro.observe`` package.

Covers the pieces that do not need a simulation run: ``TraceConfig``
validation, the ring buffer and sinks, JSONL/Chrome export round-trips,
Chrome-trace validation, lifetime reconstruction and the Konata-style
renderer, and the metrics registry.  End-to-end tracing against real
engines lives in ``tests/integration/test_trace_equivalence.py``.
"""

import json

import pytest

from repro.observe.lifetime import InstructionLifetime, build_lifetimes, render_pipeline
from repro.observe.metrics import MetricsRegistry, write_metrics_json
from repro.observe.trace import (
    TRACE_CATEGORIES,
    TraceConfig,
    Tracer,
    build_tracer,
    chrome_trace,
    event_dict,
    read_trace,
    validate_chrome_trace,
)


class FakeToken:
    def __init__(self, seq, opclass="alu", pc=0x100):
        self.seq = seq
        self.opclass = opclass
        self.pc = pc


# -- TraceConfig -------------------------------------------------------------


def test_trace_config_defaults_cover_every_category():
    assert TraceConfig().categories == TRACE_CATEGORIES


def test_trace_config_normalises_list_categories():
    config = TraceConfig(categories=["firing", "stall"])
    assert config.categories == ("firing", "stall")


def test_trace_config_rejects_unknown_categories():
    with pytest.raises(ValueError, match="unknown trace categories"):
        TraceConfig(categories=("firing", "bogus"))


@pytest.mark.parametrize("capacity", [0, -1, 1.5, "many"])
def test_trace_config_rejects_bad_capacity(capacity):
    with pytest.raises(ValueError, match="capacity"):
        TraceConfig(capacity=capacity)


def test_build_tracer_returns_none_when_off():
    assert build_tracer(None) is None
    assert build_tracer(TraceConfig(enabled=False)) is None
    assert build_tracer(TraceConfig(categories=())) is None
    assert isinstance(build_tracer(TraceConfig()), Tracer)


# -- ring buffer and recording ----------------------------------------------


def test_ring_capacity_drops_oldest_but_counts_everything():
    tracer = Tracer(TraceConfig(capacity=3))
    for cycle in range(5):
        tracer.firing(cycle, "t", None)
    assert tracer.recorded == 5
    assert tracer.dropped == 2
    assert [event[1] for event in tracer.events] == [2, 3, 4]


def test_sinks_see_events_the_ring_evicts():
    tracer = Tracer(TraceConfig(capacity=2))
    seen = []
    tracer.add_sink(seen.append)
    for cycle in range(4):
        tracer.stall(cycle, "FSTALL", FakeToken(cycle))
    assert len(tracer.events) == 2
    assert [event[1] for event in seen] == [0, 1, 2, 3]


def test_counts_and_firing_counts():
    tracer = Tracer(TraceConfig())
    tracer.firing(0, "fetch", FakeToken(1))
    tracer.firing(1, "fetch", FakeToken(2))
    tracer.firing(1, "decode", FakeToken(1))
    tracer.squash(2, "mispredict", FakeToken(2))
    assert tracer.counts() == {"firing": 3, "squash": 1}
    assert tracer.firing_counts() == {"fetch": 2, "decode": 1}


def test_clear_resets_ring_and_totals():
    tracer = Tracer(TraceConfig())
    tracer.firing(0, "t", None)
    tracer.clear()
    assert tracer.events == []
    assert tracer.recorded == 0


def test_event_dict_uses_category_field_names():
    row = event_dict(("cache", 7, "L1D", "miss", 0x2000, 11))
    assert row == {
        "cat": "cache",
        "cycle": 7,
        "level": "L1D",
        "kind": "miss",
        "address": 0x2000,
        "latency": 11,
    }


def test_jsonl_round_trip(tmp_path):
    tracer = Tracer(TraceConfig())
    tracer.firing(0, "fetch", FakeToken(1))
    tracer.token_created(0, FakeToken(2), place="FD")
    path = tmp_path / "trace.jsonl"
    written = tracer.write_jsonl(str(path))
    assert written == 2
    meta, events = read_trace(str(path))
    assert meta["type"] == "meta"
    assert meta["recorded"] == 2
    assert [event["cat"] for event in events] == ["firing", "token"]
    assert events[1]["place"] == "FD"


# -- Chrome trace export and validation --------------------------------------


def _sample_meta():
    return {
        "type": "meta",
        "model": "toy",
        "stages": ["F", "D"],
        "places": {"FD": "F", "DE": "D"},
        "transitions": {
            "fetch": {
                "source": "FD",
                "source_stage": "F",
                "target": "DE",
                "target_stage": "D",
                "end": False,
                "consumes": False,
            },
            "retire": {
                "source": "DE",
                "source_stage": "D",
                "target": "END",
                "target_stage": None,
                "end": True,
                "consumes": False,
            },
        },
        "entries": {"alu": ["FD", "F"]},
    }


def _sample_events():
    return [
        {"cat": "token", "cycle": 0, "place": "FD", "seq": 1, "opclass": "alu", "pc": 4},
        {"cat": "firing", "cycle": 1, "transition": "fetch", "seq": 1, "opclass": "alu", "pc": 4},
        {"cat": "stall", "cycle": 2, "place": "DE", "seq": 1, "opclass": "alu", "pc": 4},
        {"cat": "firing", "cycle": 3, "transition": "retire", "seq": 1, "opclass": "alu", "pc": 4},
        {"cat": "squash", "cycle": 3, "cause": "mispredict", "seq": 2, "opclass": "alu", "pc": 8},
        {"cat": "cache", "cycle": 1, "level": "L1I", "kind": "miss", "address": 4, "latency": 11},
    ]


def test_chrome_trace_structure_is_valid():
    document = chrome_trace(_sample_meta(), _sample_events())
    assert validate_chrome_trace(document) == []
    phases = {event["ph"] for event in document["traceEvents"]}
    # metadata, slices, squash instants and counter tracks all present
    assert {"M", "X", "i", "C"} <= phases


def test_validate_chrome_trace_rejects_malformed_documents():
    assert validate_chrome_trace([]) == ["top level must be a JSON object, got list"]
    assert validate_chrome_trace({}) == ["traceEvents must be a JSON array"]
    assert validate_chrome_trace({"traceEvents": []}) == ["traceEvents is empty"]
    problems = validate_chrome_trace(
        {
            "traceEvents": [
                {"ph": "Z", "name": "?"},
                {"ph": "X", "name": "slice", "ts": 0, "dur": -1, "pid": 0, "tid": 0},
                {"ph": "i", "name": "mark", "pid": 0, "tid": 0},  # missing ts
            ]
        }
    )
    assert any("unknown phase" in problem for problem in problems)
    assert any("negative duration" in problem for problem in problems)
    assert any("missing field 'ts'" in problem for problem in problems)


# -- lifetime reconstruction -------------------------------------------------


def test_build_lifetimes_reconstructs_stage_visits():
    records = build_lifetimes(_sample_meta(), _sample_events())
    record = records[1]
    assert record.created == 0
    assert record.retired == 3
    assert record.stall_cycles == 1
    assert [(visit.stage, visit.enter, visit.leave) for visit in record.visits] == [
        ("F", 0, 1),
        ("D", 1, 3),
    ]
    assert record.stage_at(0) == "F"
    assert record.stage_at(2) == "D"
    squashed = records[2]
    assert squashed.squashed and squashed.squash_cause == "mispredict"
    assert squashed.squash_cycle == 3


def test_build_lifetimes_accepts_raw_tuples():
    events = [
        ("token", 0, "FD", 1, "alu", 4),
        ("firing", 1, "fetch", 1, "alu", 4),
    ]
    records = build_lifetimes(_sample_meta(), events)
    assert records[1].visits[0].stage == "F"


def test_render_pipeline_marks_stages_retire_and_squash():
    records = build_lifetimes(_sample_meta(), _sample_events())
    diagram = render_pipeline(_sample_meta(), records)
    lines = diagram.splitlines()
    assert "F=F" in lines[1] and "D=D" in lines[1]
    rows = {line.split()[0]: line for line in lines[3:]}
    assert rows["i1"][30:34] == "FDD="
    assert rows["i2"].rstrip().endswith("squashed(mispredict)")
    assert "x" in rows["i2"]


def test_render_pipeline_window_and_limit():
    records = {
        seq: InstructionLifetime(seq=seq, created=seq, retired=seq + 2)
        for seq in range(5)
    }
    diagram = render_pipeline({"stages": []}, records, start=2, end=5, limit=2)
    lines = diagram.splitlines()
    assert "2 instruction(s)" in lines[0]
    assert "cycles 2..4" in lines[0]
    assert render_pipeline({"stages": []}, {}) == "(no instruction lifetimes in trace)"


# -- metrics registry --------------------------------------------------------


def test_counter_monotonic():
    registry = MetricsRegistry()
    counter = registry.counter("c")
    counter.inc()
    counter.inc(2.5)
    assert counter.value == 3.5
    with pytest.raises(ValueError, match="cannot decrease"):
        counter.inc(-1)


def test_registry_get_or_create_and_kind_conflicts():
    registry = MetricsRegistry()
    assert registry.counter("x") is registry.counter("x")
    with pytest.raises(TypeError, match="already registered"):
        registry.gauge("x")


def test_snapshot_records_each_metric_with_its_kind_and_description():
    registry = MetricsRegistry()
    registry.gauge("g", "a gauge").set(7)
    registry.counter("c", "a counter").inc(4)
    registry.gauge("g").set(9)  # a gauge keeps its last value
    snapshot = registry.snapshot()
    assert list(snapshot) == ["c", "g"]
    assert snapshot["c"] == {"type": "counter", "description": "a counter", "value": 4}
    assert snapshot["g"] == {"type": "gauge", "description": "a gauge", "value": 9}


def test_metrics_json_round_trip(tmp_path):
    registry = MetricsRegistry()
    registry.counter("c").inc(1)
    path = tmp_path / "metrics.json"
    write_metrics_json(str(path), registry.snapshot())
    assert json.loads(path.read_text(encoding="utf-8")) == registry.snapshot()


def test_metrics_snapshot_is_json_serialisable():
    registry = MetricsRegistry()
    registry.counter("c").inc()
    registry.gauge("g").set(None)
    json.dumps(registry.snapshot())
