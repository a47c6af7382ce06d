"""Traced emission mode of the source-level code generator.

The byte-identity contract: with tracing off — no ``TraceConfig``, a
disabled one, or one whose categories the emitter does not specialise on —
the cache key and the emitted module source are exactly what a
trace-unaware build produces.  Only enabling an emission-relevant category
(``firing``/``stall``, or the opt-in ``hostcost``) changes the key and
injects call sites into the source.
"""

from repro.codegen import codegen_key
from repro.codegen.cache import EMISSION_TRACE_CATEGORIES, emit_trace_categories
from repro.codegen.emit import emit_module_source
from repro.core.engine import EngineOptions, SimulationEngine
from repro.describe.elaborate import elaborate_net
from repro.observe.trace import TraceConfig
from repro.processors import get_spec

#: Tracing-off variants that must all emit byte-identical modules.
OFF_OPTIONS = (
    EngineOptions(backend="generated"),
    EngineOptions(backend="generated", trace=TraceConfig(enabled=False)),
    EngineOptions(
        backend="generated", trace=TraceConfig(categories=("cache", "squash", "token"))
    ),
)

TRACED = EngineOptions(backend="generated", trace=TraceConfig())


def net_and_schedule(model="arm7-mini"):
    net, _decoder, _core, _memory, _semantics = elaborate_net(get_spec(model))
    engine = SimulationEngine(net)
    return net, engine.schedule


def test_emit_trace_categories_only_reports_emission_relevant_ones():
    assert EMISSION_TRACE_CATEGORIES == ("firing", "stall", "hostcost")
    for options in OFF_OPTIONS:
        assert emit_trace_categories(options) == ()
    assert emit_trace_categories(TRACED) == ("firing", "stall")
    firing_only = EngineOptions(
        backend="generated", trace=TraceConfig(categories=("firing", "cache"))
    )
    assert emit_trace_categories(firing_only) == ("firing",)


def test_codegen_key_unchanged_when_tracing_off():
    net, _schedule = net_and_schedule()
    keys = {codegen_key(net, options) for options in OFF_OPTIONS}
    assert len(keys) == 1
    assert codegen_key(net, TRACED) not in keys


def test_codegen_key_differs_per_emitted_category_set():
    firing_only = EngineOptions(
        backend="generated", trace=TraceConfig(categories=("firing",))
    )
    stall_only = EngineOptions(
        backend="generated", trace=TraceConfig(categories=("stall",))
    )
    net, _schedule = net_and_schedule()
    keys = {codegen_key(net, options) for options in (TRACED, firing_only, stall_only)}
    assert len(keys) == 3


def test_tracing_off_source_is_byte_identical():
    net, schedule = net_and_schedule()
    sources = [emit_module_source(net, schedule, options) for options in OFF_OPTIONS]
    assert sources[0] == sources[1] == sources[2]
    assert "TRF(" not in sources[0]
    assert "TRS(" not in sources[0]


def test_traced_source_contains_trace_call_sites():
    net, schedule = net_and_schedule()
    untraced = emit_module_source(net, schedule, OFF_OPTIONS[0])
    traced = emit_module_source(net, schedule, TRACED)
    assert traced != untraced
    assert "TRF = rt['trace_firing']" in traced
    assert "TRS = rt['trace_stall']" in traced
    assert "TRF(cycle, " in traced
    assert "TRS(cycle, " in traced


def test_engine_options_coerce_trace_dicts():
    """JSON round-trips deliver the trace config as a plain dict."""
    options = EngineOptions(
        backend="generated",
        trace={"enabled": True, "capacity": 1000, "categories": ["firing"]},
    )
    assert isinstance(options.trace, TraceConfig)
    assert options.trace.categories == ("firing",)
    assert emit_trace_categories(options) == ("firing",)
