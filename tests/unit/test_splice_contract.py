"""The splice contract between hook templates and the generated engine.

The emitter pastes a hook template's source into the emitted cycle loop
only where a transition's guard or action *is* that template's closure.
Anything else — a wrapper that copies the closure's attributes (the way
``perfbench/layers.py`` times hooks), a plain callable a ``semantics_class``
subclass registers — must still be called, and both backends must still
simulate bit-identically.  The verifier re-derives every spliced body from
its template, templates compile once per process, and the ``hostcost``
emission mode leaves the untimed source alone.
"""

import dataclasses
import functools
import types

import pytest

from repro.analyze.sourcecheck import verify_engine
from repro.codegen import codegen_key
from repro.codegen.emit import emit_module_source
from repro.core.engine import EngineOptions, SimulationEngine
from repro.describe import elaborate, templates
from repro.describe.elaborate import elaborate_net
from repro.describe.semantics import HOOK_TEMPLATES, ArmSemantics
from repro.observe.trace import TraceConfig
from repro.processors import build_processor, get_spec
from repro.workloads import get_workload

MODEL = "strongarm"
KERNEL = "crc"


def summary(processor):
    stats = processor.run()
    return {
        "cycles": stats.cycles,
        "instructions": stats.instructions,
        "stalls": stats.stalls,
        "squashed": stats.squashed,
        "firings": dict(stats.transition_firings),
        "registers": [processor.register(i) for i in range(16)],
        "memory": processor.memory.statistics_summary(),
    }


def run(processor):
    processor.load_program(get_workload(KERNEL, scale=1).program)
    return summary(processor)


def wrapped_like_layer_tracer(fn, calls):
    """``fn`` wrapped the way ``LayerTracer.wrap`` wraps a hook."""

    def timed(*args, **kwargs):
        calls.append(1)
        return fn(*args, **kwargs)

    return functools.update_wrapper(timed, fn)


def counting_semantics(calls, hook="alu.execute", plain=False):
    """An ``ArmSemantics`` whose ``hook`` action also counts its calls."""

    class Counting(ArmSemantics):
        def register(self, name, guard=None, action=None):
            if name == hook and action is not None:
                if plain:
                    original = action

                    def action(t, ctx):
                        calls.append(1)
                        original(t, ctx)

                else:
                    action = wrapped_like_layer_tracer(action, calls)
            super().register(name, guard, action)

    return Counting


@pytest.mark.parametrize("plain", [False, True], ids=["update_wrapper", "plain-callable"])
def test_a_hook_that_is_not_the_template_closure_is_called(plain):
    reference = run(build_processor(MODEL, backend="interpreted"))
    results = {}
    for backend in ("interpreted", "generated"):
        calls = []
        processor = elaborate(
            get_spec(MODEL), backend=backend, semantics_class=counting_semantics(calls, plain=plain)
        )
        results[backend] = run(processor)
        # The alu.execute action runs on the alu.buffer transition.
        assert len(calls) == results[backend]["firings"]["alu.buffer"] > 0
        if backend == "generated":
            index = [t.name for t in processor.net.transitions].index("alu.buffer")
            assert "a%d(t, ctx)" % index in processor.engine.source
            assert verify_engine(processor.engine) == []
    assert results["interpreted"] == results["generated"] == reference


def opaque_gated_semantics(calls):
    """``alu.issue`` as plain callables, and a plain ``probe.front`` guard."""

    class Opaque(ArmSemantics):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)

            def probe(t, ctx):
                calls["probe.front"] += 1
                return True

            self.register("probe.front", guard=probe)

        def register(self, name, guard=None, action=None):
            if name == "alu.issue":
                guard_template, action_template = guard, action

                def guard(t, ctx):
                    return guard_template(t, ctx)

                def action(t, ctx):
                    calls["alu.issue"] += 1
                    action_template(t, ctx)

            super().register(name, guard, action)

    return Opaque


def with_front_probe(spec):
    """``spec`` with ``probe.front`` on the alu path's first (pre-issue) transition."""
    paths = []
    for path in spec.paths:
        if path.opclass == "alu":
            first, *rest = path.transitions
            first = dataclasses.replace(first, hooks=first.hooks + ("probe.front",))
            path = dataclasses.replace(path, transitions=(first, *rest))
        paths.append(path)
    return dataclasses.replace(spec, paths=tuple(paths))


@pytest.mark.parametrize("model", ["strongarm-ds", "xscale-ds"])
def test_a_gated_hook_that_is_not_a_template_is_called(model):
    """An opaque hook on an issue point or a front-end transfer is called;
    its issue or advance gate is written inline before the call."""
    reference = run(build_processor(model, backend="interpreted"))
    spec = with_front_probe(get_spec(model))
    alu_path = next(path for path in spec.paths if path.opclass == "alu")
    results = {}
    for backend in ("interpreted", "generated"):
        calls = {"alu.issue": 0, "probe.front": 0}
        processor = elaborate(spec, backend=backend, semantics_class=opaque_gated_semantics(calls))
        results[backend] = run(processor)
        assert calls["alu.issue"] > 0 and calls["probe.front"] > 0
        if backend == "generated":
            names = [t.name for t in processor.net.transitions]
            front = names.index(alu_path.transitions[0].name)
            issue = names.index(next(t.name for t in alu_path.transitions if "alu.issue" in t.hooks))
            source = processor.engine.source
            for call in ("g%d(t, ctx)" % issue, "a%d(t, ctx)" % issue, "g%d(t, ctx)" % front):
                assert call in source
            assert verify_engine(processor.engine) == []
    assert results["interpreted"] == results["generated"] == reference


def test_the_template_closure_itself_is_spliced_not_called():
    processor = build_processor(MODEL, backend="generated")
    index = [t.name for t in processor.net.transitions].index("alu.buffer")
    assert "a%d(" % index not in processor.engine.source
    assert "COMPUTE_ALU(t)" in processor.engine.source


def _tampered(engine, source):
    return types.SimpleNamespace(
        net=engine.net,
        options=engine.options,
        schedule=engine.schedule,
        module=engine.module,
        source=source,
    )


@pytest.mark.parametrize(
    "line, mutant",
    [
        ('t.annotations["executed"] = _e', 't.annotations["executed"] = True'),
        ("GPR.writers[15] is None", "GPR.writers[14] is None"),
        ("l1i_hits += 1", "l1i_hits += 2"),
    ],
    ids=["action", "guard", "fetch"],
)
def test_mutating_a_spliced_body_is_a_finding(line, mutant):
    engine = build_processor(MODEL, backend="generated").engine
    assert line in engine.source
    findings = verify_engine(_tampered(engine, engine.source.replace(line, mutant, 1)))
    assert "SV008" in {finding.rule for finding in findings}


@pytest.mark.parametrize("model", ["strongarm-ds", "xscale-ds"])
def test_the_emitted_advance_gate_names_the_source_stage_local(model):
    results = {}
    for backend in ("interpreted", "generated"):
        processor = build_processor(model, backend=backend)
        if backend == "generated":
            source = processor.engine.source
            assert "_q.place.stage is not s" in source
            assert "ISSUE_CONTROL.may_" not in source  # no arbiter call
            assert "t.place.stage" not in source
            assert verify_engine(processor.engine) == []
        results[backend] = run(processor)
    assert results["interpreted"] == results["generated"]


def test_an_entry_stage_no_capacity_check_covers_takes_the_checked_deposit():
    from repro.core import CapacityError, generate_simulator

    errors = {}
    for backend in ("interpreted", "generated"):
        processor = build_processor(MODEL, backend=backend)
        fetch = next(t for t in processor.net.transitions if t.is_generator)
        fetch.capacity_stages = []
        processor.engine, _report = generate_simulator(processor.net, EngineOptions(backend=backend))
        if backend == "generated":
            assert "deposit(_x, _ep, 0)" in processor.engine.source
            assert verify_engine(processor.engine) == []
        processor.load_program(get_workload(KERNEL, scale=1).program)
        with pytest.raises(CapacityError) as error:
            processor.run()
        errors[backend] = (str(error.value), processor.engine.cycle, processor.memory.statistics_summary())
    assert errors["interpreted"] == errors["generated"]


class AgenOverride(ArmSemantics):
    """``mem.agen`` replaced by a template of the same key and other text."""

    def _install_hooks(self):
        super()._install_hooks()
        stock = HOOK_TEMPLATES["mem.agen"]
        override = templates.HookTemplate(stock.key, action=stock.action + '\nt.annotations["agen-override"] = 1')
        self.register("mem.agen", *templates.bind(override, self.env))


def test_building_a_model_again_execs_no_template():
    build_processor(MODEL, backend="interpreted")
    build_processor("xscale", backend="generated")
    compiled = templates.COMPILES
    for backend in ("interpreted", "generated"):
        build_processor(MODEL, backend=backend)
        build_processor("xscale", backend=backend)
    assert templates.COMPILES == compiled
    # An override's text is new content: its first build compiles it (and
    # the chains it enters), a rebuild on either backend compiles nothing.
    elaborate(get_spec(MODEL), backend="interpreted", semantics_class=AgenOverride)
    assert templates.COMPILES > compiled
    compiled = templates.COMPILES
    for backend in ("interpreted", "generated"):
        elaborate(get_spec(MODEL), backend=backend, semantics_class=AgenOverride)
    assert templates.COMPILES == compiled


FIELDS = {"key": "value", "guard": "t.ready", "action": "_x = 1", "inline": True}
CHANGED = {"key": "other", "guard": "t.busy", "action": "_x = 2", "inline": False}


@pytest.mark.parametrize("field,other", CHANGED.items())
def test_a_template_is_its_content(field, other):
    one, two = templates.HookTemplate(**FIELDS), templates.HookTemplate(**FIELDS)
    assert one is not two and one == two and hash(one) == hash(two)
    assert templates.HookTemplate(**{**FIELDS, field: other}) != one
    # Equal content shares one compiled closure factory.
    compiled = templates.COMPILES
    assert templates.bind(one, {})[1].__code__ is templates.bind(two, {})[1].__code__
    assert templates.COMPILES <= compiled + 1


HOSTCOST_OFF = (
    EngineOptions(backend="generated"),
    EngineOptions(backend="generated", trace=TraceConfig(enabled=False, categories=("hostcost",))),
    EngineOptions(backend="generated", trace=TraceConfig(categories=("cache", "token"))),
)


def test_hostcost_off_leaves_source_and_key_byte_identical():
    net, _decoder, _core, _memory, _semantics = elaborate_net(get_spec(MODEL))
    schedule = SimulationEngine(net).schedule
    sources = {emit_module_source(net, schedule, options) for options in HOSTCOST_OFF}
    keys = {codegen_key(net, options) for options in HOSTCOST_OFF}
    assert len(sources) == 1 and len(keys) == 1
    timed = EngineOptions(backend="generated", trace=TraceConfig(categories=("hostcost",)))
    assert codegen_key(net, timed) not in keys
    assert "NS()" not in sources.pop()


def test_hostcost_times_each_spliced_hook_and_records_no_events():
    timed = EngineOptions(
        backend="generated", trace=TraceConfig(categories=("firing", "hostcost"))
    )
    plain = EngineOptions(backend="generated", trace=TraceConfig(categories=("firing",)))
    timed_processor = build_processor(MODEL, engine_options=timed)
    plain_processor = build_processor(MODEL, engine_options=plain)
    assert run(timed_processor) == run(plain_processor)
    assert timed_processor.tracer.events == plain_processor.tracer.events
    snapshot = timed_processor.tracer.metrics.snapshot()
    firings = timed_processor.stats.transition_firings
    assert snapshot["hostcost.alu.execute.action.calls"]["value"] == firings["alu.buffer"]
    assert snapshot["hostcost.fetch.sequential.action.calls"]["value"] == firings["fetch"]
    assert snapshot["hostcost.alu.issue.guard.ns"]["value"] > 0
    assert verify_engine(timed_processor.engine) == []


@pytest.mark.parametrize("backend", ["interpreted", "generated"])
def test_a_helper_rebound_before_the_build_is_called(backend, monkeypatch):
    from repro.describe import semantics

    calls = []
    original = semantics.compute_alu

    def counted(token):
        calls.append(1)
        return original(token)

    monkeypatch.setattr(semantics, "compute_alu", counted)
    processor = build_processor(MODEL, backend=backend)
    result = run(processor)
    assert len(calls) > 0
    monkeypatch.undo()
    assert result == run(build_processor(MODEL, backend=backend))


@pytest.mark.parametrize("model", ["strongarm", "xscale", "strongarm-ds", "example"])
def test_a_template_closure_is_spliced_unless_marked_called(model):
    from repro.codegen.runtime import splice_plan

    processor = build_processor(model, backend="generated")
    source = processor.engine.source
    rows, _env = splice_plan(processor.net)
    for index, (transition, row) in enumerate(zip(processor.net.transitions, rows)):
        if transition.is_generator:
            continue
        for template, call in zip(row, ("g%d(" % index, "a%d(" % index)):
            if template is not None:
                assert (call in source) == (not template.inline), (transition.name, template)


@pytest.mark.parametrize(
    "temporary", ["stalls", "instructions", "tf3", "rbc0", "p2t", "p2p", "cycle0", "l1i_hits", "btb_entries"]
)
def test_a_template_temporary_may_not_clobber_the_loop_state(temporary):
    template = templates.HookTemplate("clobber/" + temporary, action="%s = 0" % temporary)
    with pytest.raises(ValueError, match="clash"):
        templates.render(template, "splice")


def test_only_templates_naming_stats_need_a_write_back():
    from repro.describe.semantics import FETCH_TEMPLATES

    reader = templates.HookTemplate("reader", action="_x = ctx.stats.cycles")
    assert reader.reads_stats
    assert not any(t.reads_stats for t in (*HOOK_TEMPLATES.values(), *FETCH_TEMPLATES.values()))
