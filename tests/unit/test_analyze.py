"""Tests for repro.analyze: lint rules, emitted-source verification, CLI.

Every lint rule gets at least one seeded-broken spec (positive) and one
clean fixture (negative); the registered-model sweep proves the shipped
registry lints clean; and the AST verifier is driven both over genuine
engines (clean) and over deliberately tampered emitted source (each SV
rule fires).
"""

import io
import json
import types

import pytest

from repro.analyze import (
    RULES,
    exceeds,
    lint_model,
    lint_net,
    lint_registered,
    lint_spec,
    max_severity,
    record_rule_hits,
    verify_backend,
    verify_engine,
    verify_model,
)
from repro.analyze.cli import main as analyze_main
from repro.core.engine import EngineOptions
from repro.describe.spec import (
    CacheLevelSpec,
    FetchSpec,
    HazardSpec,
    IssueSpec,
    MemorySpec,
    OpClassPathSpec,
    PipelineSpec,
    PlaceSpec,
    StageSpec,
    TransitionSpec,
)
from repro.processors.registry import build_processor, processor_names


def rules_of(findings):
    return {entry.rule for entry in findings}


def mini_spec(
    path=None,
    stages=None,
    hazards=None,
    issue=None,
    fetch=None,
    memory=None,
):
    """A minimal clean three-stage single-path pipeline, with overrides."""
    if path is None:
        path = OpClassPathSpec(
            "alu",
            stages=("F", "X", "W"),
            transitions=(
                TransitionSpec("D", "F", "X"),
                TransitionSpec("E", "X", "W"),
                TransitionSpec("We", "W", "end"),
            ),
        )
    return PipelineSpec(
        name="mini",
        stages=stages or (StageSpec("F"), StageSpec("X"), StageSpec("W")),
        paths=(path,),
        hazards=hazards or HazardSpec(forward_states=("W",)),
        issue=issue or IssueSpec(),
        fetch=fetch or FetchSpec(),
        memory=memory or MemorySpec(),
    )


# ---------------------------------------------------------------------------
# Spec-level rules (AN0xx)
# ---------------------------------------------------------------------------


def test_mini_spec_lints_clean():
    assert lint_spec(mini_spec()) == []


def test_an001_non_spec_input():
    findings = lint_spec(object())
    assert rules_of(findings) == {"AN001"}
    assert findings[0].severity == "error"


def test_an001_validate_rejection_with_did_you_mean():
    spec = mini_spec(
        path=OpClassPathSpec(
            "aluu",
            stages=("F", "X", "W"),
            transitions=(
                TransitionSpec("D", "F", "X"),
                TransitionSpec("E", "X", "W"),
                TransitionSpec("We", "W", "end"),
            ),
        )
    )
    findings = lint_spec(spec)
    assert rules_of(findings) == {"AN001"}
    assert any("unknown operation class" in f.message for f in findings)
    assert any("did you mean 'alu'" in f.message for f in findings)


def test_an002_an009_an004_dead_consume_chain():
    # E consumes a reservation nobody produces: E is dead, a token parked
    # in X jams (siphon), and the path can never retire.
    spec = mini_spec(
        path=OpClassPathSpec(
            "alu",
            stages=("F", "X", "W"),
            extra_places=(PlaceSpec("lock", "X"),),
            transitions=(
                TransitionSpec("D", "F", "X"),
                TransitionSpec("E", "X", "W", consumes=("lock",)),
                TransitionSpec("We", "W", "end"),
            ),
        )
    )
    findings = lint_spec(spec)
    assert {"AN002", "AN009", "AN004", "AN003"} <= rules_of(findings)
    dead = [f for f in findings if f.rule == "AN002"]
    assert any("'E'" in f.message and "'lock'" in f.message for f in dead)
    # 'We' is dead transitively: its source W is never occupied.
    assert any("'We'" in f.message for f in dead)
    assert all(f.severity == "error" for f in findings if f.rule == "AN009")


def test_an003_skipped_stage_unreachable():
    spec = mini_spec(
        path=OpClassPathSpec(
            "alu",
            stages=("F", "X", "W"),
            transitions=(
                TransitionSpec("D", "F", "X"),
                TransitionSpec("E", "X", "end"),
            ),
        )
    )
    findings = lint_spec(spec)
    assert rules_of(findings) == {"AN003"}
    assert "'W'" in findings[0].message


def test_an005_reservation_leak_names_blocking_stage():
    spec = mini_spec(
        path=OpClassPathSpec(
            "alu",
            stages=("F", "X", "W"),
            extra_places=(PlaceSpec("buf", "X"),),
            transitions=(
                TransitionSpec("D", "F", "X", produces=("buf",)),
                TransitionSpec("E", "X", "W"),
                TransitionSpec("We", "W", "end"),
            ),
        )
    )
    findings = lint_spec(spec)
    assert rules_of(findings) == {"AN005"}
    assert "'buf'" in findings[0].message
    assert "fills up and blocks" in findings[0].message


def test_an005_negative_balanced_reservation():
    spec = mini_spec(
        path=OpClassPathSpec(
            "alu",
            stages=("F", "X", "W"),
            extra_places=(PlaceSpec("buf", "X"),),
            transitions=(
                TransitionSpec("D", "F", "X", produces=("buf",)),
                TransitionSpec("E", "X", "W", consumes=("buf",)),
                TransitionSpec("We", "W", "end"),
            ),
        )
    )
    assert lint_spec(spec) == []


def test_an006_narrow_front_end_stage():
    spec = mini_spec(
        stages=(StageSpec("F"), StageSpec("X", capacity=2), StageSpec("W", capacity=2)),
        issue=IssueSpec(width=2, stage="X"),
    )
    findings = lint_spec(spec)
    assert rules_of(findings) == {"AN006"}
    assert "'F'" in findings[0].message and "width 2" in findings[0].message


def test_an006_negative_wide_front_end():
    spec = mini_spec(
        stages=(
            StageSpec("F", capacity=2),
            StageSpec("X", capacity=2),
            StageSpec("W", capacity=2),
        ),
        issue=IssueSpec(width=2, stage="X"),
    )
    assert lint_spec(spec) == []


def test_an007_no_forwarding_on_deep_pipeline():
    spec = mini_spec(hazards=HazardSpec())
    findings = lint_spec(spec)
    assert rules_of(findings) == {"AN007"}
    assert "stalls until writeback" in findings[0].message


def test_an007_negative_s1_forward_state_counts():
    spec = mini_spec(hazards=HazardSpec(s1_forward_state="W"))
    assert lint_spec(spec) == []


def test_an008_geometry_smells():
    memory = MemorySpec(
        l1_data=CacheLevelSpec(
            name="D$", size_bytes=1024, line_bytes=32, associativity=32
        ),
        l2=CacheLevelSpec(
            name="L2", size_bytes=4096, line_bytes=16, associativity=4, hit_latency=40
        ),
    )
    findings = lint_spec(mini_spec(memory=memory))
    assert rules_of(findings) == {"AN008"}
    messages = " | ".join(f.message for f in findings)
    assert "associativity 32 exceeds" in messages
    assert "smaller than L1" in messages
    assert "line size" in messages
    assert "never pays off" in messages


def test_an008_negative_default_memory():
    assert lint_spec(mini_spec(memory=MemorySpec())) == []


def test_an010_unwired_fetch_stall():
    spec = mini_spec(
        stages=(
            StageSpec("F"),
            StageSpec("X"),
            StageSpec("W"),
            StageSpec("FS"),
        ),
        fetch=FetchSpec(stall_stage="FS"),
    )
    findings = lint_spec(spec)
    assert rules_of(findings) == {"AN010"}
    assert "'FS'" in findings[0].message


def test_an010_negative_wired_fetch_stall():
    spec = mini_spec(
        path=OpClassPathSpec(
            "alu",
            stages=("F", "X", "W"),
            extra_places=(PlaceSpec("stall", "FS"),),
            transitions=(
                TransitionSpec("D", "F", "X", produces=("stall",)),
                TransitionSpec("E", "X", "W", consumes=("stall",)),
                TransitionSpec("We", "W", "end"),
            ),
        ),
        stages=(
            StageSpec("F"),
            StageSpec("X"),
            StageSpec("W"),
            StageSpec("FS"),
        ),
        fetch=FetchSpec(stall_stage="FS"),
    )
    assert lint_spec(spec) == []


# ---------------------------------------------------------------------------
# Net-level rules (AN1xx)
# ---------------------------------------------------------------------------


def test_an101_elaboration_failure_is_a_finding(monkeypatch):
    from repro.processors import registry

    spec = mini_spec(
        path=OpClassPathSpec(
            "alu",
            stages=("F", "X", "W"),
            transitions=(
                TransitionSpec("D", "F", "X", hooks="no.such.hook"),
                TransitionSpec("E", "X", "W"),
                TransitionSpec("We", "W", "end"),
            ),
        )
    )
    monkeypatch.setitem(
        registry._REGISTRY,
        "broken-hooks",
        registry.ProcessorEntry(
            name="broken-hooks",
            spec_factory=lambda: spec,
            lint=False,
        ),
    )
    findings = lint_model("broken-hooks")
    assert rules_of(findings) == {"AN101"}
    assert findings[0].location == "net:elaborate"
    # lint=False keeps it out of the default sweep.
    assert "broken-hooks" not in lint_registered()


def test_an102_dead_dispatch_place():
    net = build_processor("example").net
    place = net.place("alu.L2")
    net.transitions = [t for t in net.transitions if t.source is not place]
    findings = lint_net(net)
    assert "AN102" in rules_of(findings)
    assert any("alu.L2" in f.location for f in findings if f.rule == "AN102")


def test_an103_orphan_place():
    net = build_processor("example").net
    net.add_place(net.stage("L2"), net.subnets["alu"], name="alu.orphan")
    findings = lint_net(net)
    assert rules_of(findings) == {"AN103"}
    assert "alu.orphan" in findings[0].location


def test_net_lint_clean_on_shipped_model():
    assert lint_net(build_processor("example").net) == []


# ---------------------------------------------------------------------------
# Registry sweep: every shipped model lints clean
# ---------------------------------------------------------------------------


def test_all_registered_models_lint_clean():
    results = lint_registered()
    assert set(results) == set(processor_names())
    dirty = {name: findings for name, findings in results.items() if findings}
    assert dirty == {}


@pytest.mark.parametrize("command", ["lint", "verify"])
def test_cli_metrics_count_clean_and_dirty_models(command, tmp_path):
    path = tmp_path / "metrics.json"
    assert analyze_main([command, "example", "--metrics-json", str(path)], out=io.StringIO()) == 0
    snapshot = json.loads(path.read_text())
    assert snapshot["analyze.models_clean"]["value"] == 1
    assert snapshot["analyze.models_dirty"]["value"] == 0


def test_record_rule_hits_counts_by_rule_and_severity():
    from repro.observe.metrics import MetricsRegistry

    findings = lint_spec(mini_spec(hazards=HazardSpec()))
    metrics = MetricsRegistry()
    record_rule_hits(metrics, findings)
    snapshot = metrics.snapshot()
    assert snapshot["analyze.rule.AN007"]["value"] == 1
    assert snapshot["analyze.findings.warning"]["value"] == 1


def test_severity_helpers():
    findings = lint_spec(mini_spec(hazards=HazardSpec()))
    assert max_severity(findings) == "warning"
    assert exceeds(findings, "warning")
    assert not exceeds(findings, "error")
    assert max_severity([]) is None


# ---------------------------------------------------------------------------
# Emitted-source verification (SV0xx)
# ---------------------------------------------------------------------------

VERIFY_MODELS = tuple(processor_names())


@pytest.mark.parametrize("model", VERIFY_MODELS)
def test_emitted_source_verifies_clean(model):
    assert verify_model(model) == []


@pytest.mark.parametrize("model", VERIFY_MODELS)
def test_traced_emission_verifies_clean(model):
    assert verify_model(model, trace=True) == []


@pytest.mark.parametrize("model", VERIFY_MODELS)
def test_hostcost_emission_verifies_clean(model):
    assert verify_model(model, hostcost=True) == []


def _engine(model="example", trace=False):
    options = {"backend": "generated"}
    if trace:
        options["trace"] = {"categories": ("firing", "stall"), "capacity": 64}
    return build_processor(model, engine_options=EngineOptions(**options)).engine


def _engine_calling_a_plain_guard():
    """The example model with ``alu.issue``'s guard a plain callable.

    An opaque hook is called, not spliced, and keeps every place's
    operation-class dispatch, so the ``_oc`` compares and a ``gN(t, ctx)``
    call site are there to tamper with.
    """
    return _engine_calling_a_plain("guard")


def _engine_calling_a_plain(kind):
    """The example model with ``alu.issue``'s ``kind`` ("guard" or
    "action") a plain callable wrapping the template's closure."""
    from repro.describe import elaborate
    from repro.describe.semantics import ArmSemantics
    from repro.processors.example import example_spec

    class Plain(ArmSemantics):
        def register(self, name, guard=None, action=None):
            if name == "alu.issue":
                hooks = {"guard": guard, "action": action}
                template_hook = hooks[kind]

                def plain(t, ctx):
                    return template_hook(t, ctx)

                hooks[kind] = plain
                guard, action = hooks["guard"], hooks["action"]
            super().register(name, guard, action)

    return elaborate(example_spec(), backend="generated", semantics_class=Plain).engine


def _tampered(engine, source):
    return types.SimpleNamespace(
        net=engine.net,
        options=engine.options,
        schedule=engine.schedule,
        source=source,
    )


@pytest.mark.parametrize(
    "line, mutant",
    [
        ("    def run_cycles(limit):", "    def run_cycle(limit):"),
        ("        finally:", "        except Exception:"),
    ],
)
def test_sv001_module_shape_tamper_detected(line, mutant):
    engine = _engine()
    source = engine.source.replace("\n" + line + "\n", "\n" + mutant + "\n", 1)
    assert source != engine.source
    findings = verify_engine(_tampered(engine, source))
    assert [f.rule for f in findings] == ["SV001"]


def test_sv002_dispatch_branch_tamper_detected():
    engine = _engine_calling_a_plain_guard()
    assert verify_engine(engine) == []
    source = engine.source.replace("_oc == 'alu'", "_oc == 'mul'", 1)
    assert source != engine.source
    findings = verify_engine(_tampered(engine, source))
    assert "SV002" in rules_of(findings)


def test_sv003_place_order_tamper_detected():
    engine = _engine()
    source = engine.source.replace("if p0t:", "if p99t:", 1)
    assert source != engine.source
    findings = verify_engine(_tampered(engine, source))
    assert "SV003" in rules_of(findings)


def test_sv004_missing_firing_site_detected():
    engine = _engine()
    index = [t.name for t in engine.net.transitions].index("D_alu")
    source = engine.source.replace("tf%d += 1" % index, "pass", 1)
    assert source != engine.source
    findings = verify_engine(_tampered(engine, source))
    assert "SV004" in rules_of(findings)
    assert any("D_alu" in f.location for f in findings if f.rule == "SV004")


def test_sv005_stripped_gate_call_detected():
    """A stripped called guard is one finding: the enable test's (SV008).

    SV005 counts only action call sites; a guard call is a conjunct of its
    enable test, which SV008 compares whole.
    """
    import re

    engine = _engine_calling_a_plain_guard()
    assert verify_engine(engine) == []
    source = re.sub(r"\bg\d+\(t, ctx\)", "True", engine.source, count=1)
    assert source != engine.source
    findings = verify_engine(_tampered(engine, source))
    assert [f.rule for f in findings] == ["SV008"]
    assert findings[0].location == "source:transition 'D_alu'"


def test_sv005_stripped_action_call_detected():
    import re

    engine = _engine_calling_a_plain("action")
    assert verify_engine(engine) == []
    source, count = re.subn(r"\ba(\d+)\(t, ctx\)", "pass", engine.source, count=1)
    assert count == 1
    findings = verify_engine(_tampered(engine, source))
    assert [f.rule for f in findings] == ["SV005"]


def test_sv004_dropped_stall_site_detected():
    engine = _engine()
    source = engine.source.replace("stalls += 1", "pass", 1)
    assert source != engine.source
    findings = verify_engine(_tampered(engine, source))
    assert [(f.rule, f.location) for f in findings] == [("SV004", "source:stalls")]


def test_sv006_stripped_trace_sites_detected():
    engine = _engine(trace=True)
    assert "TRF(" in engine.source
    source = "\n".join(
        line for line in engine.source.splitlines() if "TRF(" not in line
    )
    findings = verify_engine(_tampered(engine, source))
    assert "SV006" in rules_of(findings)


def test_sv006_injected_trace_sites_detected():
    # Tracing off: grafting a traced module's body in must be caught.
    traced = _engine(trace=True)
    plain = _engine(trace=False)
    findings = verify_engine(_tampered(plain, traced.source))
    assert "SV006" in rules_of(findings)


def _counter_tamper(line, mutant, model="example"):
    engine = _engine(model)
    # The finally's lines sit at the try's indent + 4 (12 spaces).
    source = engine.source.replace("\n" + line + "\n", "\n" + mutant + "\n", 1)
    assert source != engine.source
    return [f for f in verify_engine(_tampered(engine, source)) if f.rule == "SV009"]


def test_sv009_dropped_write_back_detected():
    index = [t.name for t in _engine().net.transitions].index("D_alu")
    findings = _counter_tamper(
        "            if tf%d:\n                tf['D_alu'] += tf%d" % (index, index),
        "            if tf%d:\n                pass" % index,
    )
    assert [f.location for f in findings] == ["source:counter tf%d" % index]


def test_sv009_dropped_zeroing_detected():
    findings = _counter_tamper("        stalls = 0", "        pass")
    assert [f.location for f in findings] == ["source:counter stalls"]


def test_sv009_wrong_or_repeated_write_back_detected():
    wrong = _counter_tamper(
        "            stats.instructions += instructions", "            stats.stalls += instructions"
    )
    assert [f.location for f in wrong] == ["source:counter instructions"]
    twice = _counter_tamper(
        "            stats.stalls += stalls",
        "            stats.stalls += stalls\n            stats.stalls += stalls",
    )
    assert [f.location for f in twice] == ["source:counter stalls"]


def test_sv009_front_end_counters_checked():
    # xscale splices its fetch: decode, L1I and BTB hits count run-locally.
    dropped = _counter_tamper(
        "            DECODER.hits += decoder_hits", "            pass", model="xscale"
    )
    assert [f.location for f in dropped] == ["source:counter decoder_hits"]
    wrong = _counter_tamper(
        "            l1i.stats.hits += l1i_hits", "            l1i.stats.misses += l1i_hits",
        model="xscale",
    )
    assert [f.location for f in wrong] == ["source:counter l1i_hits"]
    unzeroed = _counter_tamper("        btb_lookups = 0", "        pass", model="xscale")
    assert [f.location for f in unzeroed] == ["source:counter btb_lookups"]


@pytest.mark.parametrize(
    "line, mutant",
    [
        ("l1i_hits += 1", "l1i_hits += 2"),
        ("    btb_hits += 1", "    pass"),
        ("_x.ready_cycle = cycle + _l", "_x.ready_cycle = cycle + 1 + _l"),
        ("s1._occupancy += 1\n", "s2._occupancy += 1\n"),
    ],
    ids=["l1i-hit", "btb-hit", "entry-residence", "entry-stage"],
)
def test_sv008_spliced_fetch_tamper_detected(line, mutant):
    engine = _engine("xscale")
    assert verify_engine(engine) == []
    fetch = engine.source.index("# -- generator 'fetch'")
    head, tail = engine.source[:fetch], engine.source[fetch:]
    assert line in tail
    findings = verify_engine(_tampered(engine, head + tail.replace(line, mutant, 1)))
    assert "SV008" in rules_of(findings)


@pytest.mark.parametrize("model", ["strongarm", "strongarm-ds"])
@pytest.mark.parametrize("tamper", ["loosened", "dropped"])
def test_sv008_capacity_conjunct_tamper_detected(model, tamper):
    import re

    engine = _engine(model)
    assert verify_engine(engine) == []
    # branch.taken tests its target stage, then the fetch-stall stage its
    # reservation output fills.
    line = next(line for line in engine.source.splitlines() if line.endswith("# branch.taken"))
    conjunct = re.findall(r"s\d+\._occupancy <= \d+ and ", line)[-1]
    if tamper == "loosened":
        limit = int(re.search(r"<= (\d+)", conjunct).group(1))
        mutant = line.replace(conjunct, conjunct.replace("<= %d" % limit, "<= %d" % (limit + 1)))
    else:
        mutant = line.replace(conjunct, "")
    findings = verify_engine(_tampered(engine, engine.source.replace(line, mutant, 1)))
    assert [(f.rule, f.location) for f in findings] == [("SV008", "source:transition 'branch.taken'")]


@pytest.mark.parametrize(
    "model, line_end, old, new",
    [
        ("strongarm-ds", "# mem.issue", "iss < 2", "iss < 3"),
        ("strongarm-ds", "# mem.issue", "iss0 < 1 and ", ""),
        ("strongarm-ds", "# alu.issue", '"issued" in _q.annotations', "_q.place is None"),
        ("xscale-ds", "# alu.F1_F2", "_q.place.stage is not s", "_q.place.stage is s"),
    ],
    ids=["width", "port-dropped", "order", "advance"],
)
def test_sv010_issue_gate_tamper_detected(model, line_end, old, new):
    engine = _engine(model)
    assert verify_engine(engine) == []
    line = next(line for line in engine.source.splitlines() if line.endswith(line_end))
    assert old in line
    findings = verify_engine(_tampered(engine, engine.source.replace(line, line.replace(old, new, 1), 1)))
    assert {(f.rule, f.location) for f in findings} == {("SV010", "source:transition %r" % line_end[2:])}


@pytest.mark.parametrize("booking", ["iss += 1", "iss0 += 1", "t.prev = None"])
def test_sv010_dropped_issue_booking_detected(booking):
    engine = _engine("strongarm-ds")
    source = engine.source
    site = source.index("# mem.issue")
    at = source.index(booking, site)
    tampered = source[:at] + "pass" + source[at + len(booking):]
    findings = verify_engine(_tampered(engine, tampered))
    assert ("SV010", "source:transition 'mem.issue'") in {(f.rule, f.location) for f in findings}


# ---------------------------------------------------------------------------
# Backend coherence (SV1xx)
# ---------------------------------------------------------------------------


def test_backend_coherence_clean():
    assert verify_backend("example", "interpreted") == []
    assert verify_backend("xscale", "interpreted") == []


def test_sv101_schedule_divergence_detected(monkeypatch):
    import repro.core.scheduler as scheduler

    original = scheduler.place_evaluation_order

    def reversed_order(net):
        return list(reversed(original(net)))

    monkeypatch.setattr(scheduler, "place_evaluation_order", reversed_order)
    findings = verify_backend("example", "interpreted")
    assert "SV101" in rules_of(findings)


@pytest.mark.parametrize("model", ["example", "strongarm"])
def test_sv101_capacity_plan_divergence_detected(monkeypatch, model):
    import repro.core.scheduler as scheduler

    original = scheduler.capacity_plan

    def loosened(transition):
        # One more token admitted into every stage the transition fills.
        return tuple((stage, limit + 1) for stage, limit in original(transition))

    monkeypatch.setattr(scheduler, "capacity_plan", loosened)
    findings = verify_backend(model, "interpreted")
    assert "SV101" in rules_of(findings)
    generator = "F" if model == "example" else "fetch"
    assert any(
        f.location == "schedule:transition %r" % generator for f in findings if f.rule == "SV101"
    )


def test_sv101_a_plan_without_its_reservation_output_is_a_finding(monkeypatch):
    import repro.core.scheduler as scheduler

    original = scheduler.capacity_plan

    def no_reservation_stage(transition):
        plan = original(transition)
        if transition.reservation_outputs:
            stall = transition.reservation_outputs[0].place.stage
            plan = tuple(pair for pair in plan if pair[0] is not stall)
        return plan

    monkeypatch.setattr(scheduler, "capacity_plan", no_reservation_stage)
    findings = [f for f in verify_backend("strongarm", "interpreted") if f.rule == "SV101"]
    assert [f.location for f in findings] == ["schedule:transition 'branch.taken'"]


# ---------------------------------------------------------------------------
# Findings plumbing and CLI
# ---------------------------------------------------------------------------


def test_finding_round_trips_through_json():
    findings = lint_spec(mini_spec(hazards=HazardSpec()))
    payload = json.loads(json.dumps([f.to_dict() for f in findings]))
    assert payload[0]["rule"] == "AN007"
    assert payload[0]["slug"] == RULES["AN007"].slug
    assert payload[0]["severity"] == "warning"


def test_cli_lint_all_clean():
    out = io.StringIO()
    assert analyze_main(["lint", "--all", "--fail-on", "warning"], out=out) == 0
    text = out.getvalue()
    assert "CLEAN" in text
    assert "0 finding(s)" in text


def test_cli_lint_json_document():
    out = io.StringIO()
    assert analyze_main(["lint", "example", "--format", "json"], out=out) == 0
    document = json.loads(out.getvalue())
    assert document["command"] == "lint"
    assert document["clean"] == ["example"]
    assert document["findings"] == []


def test_cli_verify_subset():
    out = io.StringIO()
    code = analyze_main(
        ["verify", "example", "--backends", "interpreted,generated", "--format", "json"],
        out=out,
    )
    assert code == 0
    document = json.loads(out.getvalue())
    assert document["backends"] == ["interpreted", "generated"]
    assert document["dirty"] == []


def test_cli_verify_trace_covers_the_hostcost_emission(monkeypatch):
    import repro.analyze.cli as cli

    calls = []
    monkeypatch.setattr(cli, "verify_backend", lambda name, backend: [])
    monkeypatch.setattr(cli, "verify_model", lambda name, **kwargs: calls.append(kwargs) or [])
    out = io.StringIO()
    assert analyze_main(["verify", "example", "--trace", "--format", "json"], out=out) == 0
    assert calls == [{"trace": True}, {"hostcost": True}]
    assert json.loads(out.getvalue())["combinations"] == 4


def test_cli_fail_on_threshold(monkeypatch):
    from repro.processors import registry

    monkeypatch.setitem(
        registry._REGISTRY,
        "leaky",
        registry.ProcessorEntry(
            name="leaky",
            spec_factory=lambda: mini_spec(hazards=HazardSpec()),
            lint=False,
        ),
    )
    out = io.StringIO()
    assert analyze_main(["lint", "leaky", "--spec-only"], out=out) == 0
    out = io.StringIO()
    assert (
        analyze_main(["lint", "leaky", "--spec-only", "--fail-on", "warning"], out=out)
        == 1
    )
    assert "AN007" in out.getvalue()


def test_cli_rules_catalogue():
    out = io.StringIO()
    assert analyze_main(["rules"], out=out) == 0
    text = out.getvalue()
    for rule_id in RULES:
        assert rule_id in text


def test_cli_unknown_model_is_an_error():
    out = io.StringIO()
    assert analyze_main(["lint", "no-such-model"], out=out) == 1
    assert "error:" in out.getvalue()


def test_cli_requires_target():
    out = io.StringIO()
    assert analyze_main(["lint"], out=out) == 1
    assert "--all" in out.getvalue()


def test_cli_metrics_json(tmp_path):
    out = io.StringIO()
    path = tmp_path / "metrics.json"
    assert (
        analyze_main(["lint", "example", "--metrics-json", str(path)], out=out) == 0
    )
    payload = json.loads(path.read_text())
    assert payload["analyze.models_clean"]["value"] == 1
