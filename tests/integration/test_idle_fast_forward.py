"""Idle-cycle fast-forward on the generated engine.

After a cycle in which nothing fired, the generated engine jumps to the next
cycle in which a resident token becomes ready and accounts the skipped
cycles in one go (``GeneratedEngine.skipped_cycles`` counts them).  The
interpreted engine steps cycle by cycle and is the oracle: every statistic
must agree, however a run is cut into ``run()`` calls, and when a guard
reads ``ctx.cycle`` (an idle step that reads the clock is never skipped;
a read in a busy step leaves the skip free).  The
last tests check that the skip really engages, and that stall tracing
turns it off.
"""

import pytest

from repro.core import EngineOptions, InstructionToken, OperationClass, RCPN, generate_simulator
from repro.core.engine import ENGINE_BACKENDS
from repro.observe.trace import TraceConfig
from repro.processors import build_processor
from repro.workloads import get_workload

#: The miss-heavy small-cache models, where a third of the cycles are idle.
SMALL_CACHE_MODELS = ("strongarm-c512", "xscale-l2")


def clock_gated_net(open_at):
    """fetch -> A -> B -> end with one token whose ``bend`` waits for ``open_at``.

    The token reaches B early and sits there with a past ``ready_cycle``, so
    nothing but the ``ctx.cycle`` read tells the engine that the idle cycles
    differ.
    """
    net = RCPN("clock-gated")
    net.add_stage("A", capacity=1, delay=1)
    net.add_stage("B", capacity=1, delay=1)
    net.add_operation_class(OperationClass("op", symbols={}))
    gen = net.add_subnet("gen")
    sub = net.add_subnet("op", opclasses=("op",))
    place_a = net.add_place("A", sub, entry=True)
    place_b = net.add_place("B", sub)
    place_end = net.add_place("end", sub)
    state = {"emitted": 0}

    def fetch_guard(_t, _ctx):
        return state["emitted"] < 1

    def fetch_action(_t, ctx):
        state["emitted"] += 1
        ctx.emit(InstructionToken(instr=1, opclass="op", pc=0x100))
        ctx.stop("done")

    net.add_transition("fetch", gen, guard=fetch_guard, action=fetch_action, capacity_stages=["A"])
    net.add_transition("ab", sub, source=place_a, target=place_b)
    net.add_transition(
        "bend", sub, source=place_b, target=place_end, guard=lambda t, ctx: ctx.cycle >= open_at
    )
    return net


@pytest.mark.parametrize("backend", ENGINE_BACKENDS)
def test_a_step_that_reads_the_clock_is_never_skipped(backend):
    engine, _report = generate_simulator(clock_gated_net(37), EngineOptions(backend=backend))
    stats = engine.run(max_cycles=10_000)
    assert stats.finish_reason == "done"
    assert stats.cycles == 38
    assert stats.transition_firings["bend"] == 1


def busy_clock_net(reads):
    """fetch -> A -> B -> end with three tokens and a long residence in B.

    ``ab`` reads ``ctx.cycle`` (into ``reads``) only when B has room, so
    the clock is read in the busy cycles in which a token moves on, never
    in the idle cycles in which it waits out B's delay.
    """
    net = RCPN("busy-clock")
    net.add_stage("A", capacity=1, delay=1)
    net.add_stage("B", capacity=1, delay=20)
    net.add_operation_class(OperationClass("op", symbols={}))
    gen = net.add_subnet("gen")
    sub = net.add_subnet("op", opclasses=("op",))
    place_a = net.add_place("A", sub, entry=True)
    place_b = net.add_place("B", sub)
    place_end = net.add_place("end", sub)
    state = {"emitted": 0}

    def fetch_guard(_t, _ctx):
        return state["emitted"] < 3

    def fetch_action(_t, ctx):
        state["emitted"] += 1
        ctx.emit(InstructionToken(instr=1, opclass="op", pc=0x100 + 4 * state["emitted"]))
        if state["emitted"] == 3:
            ctx.stop("done")

    def ab_guard(_t, ctx):
        reads.append(ctx.cycle)
        return True

    net.add_transition("fetch", gen, guard=fetch_guard, action=fetch_action, capacity_stages=["A"])
    net.add_transition("ab", sub, source=place_a, target=place_b, guard=ab_guard)
    net.add_transition("bend", sub, source=place_b, target=place_end)
    return net


def test_a_clock_read_in_a_busy_cycle_does_not_stop_the_skip():
    results = {}
    for backend in ENGINE_BACKENDS:
        reads = []
        engine, _report = generate_simulator(busy_clock_net(reads), EngineOptions(backend=backend))
        stats = engine.run(max_cycles=10_000)
        assert stats.finish_reason == "done"
        assert len(reads) == 3
        results[backend] = (
            stats.cycles, stats.instructions, stats.stalls, dict(stats.transition_firings), reads,
        )
        if backend == "generated":
            assert engine.skipped_cycles > 0
    assert results["generated"] == results["interpreted"]


def observable(processor, stats):
    return {
        "cycles": stats.cycles,
        "instructions": stats.instructions,
        "stalls": stats.stalls,
        "squashed": stats.squashed,
        "transition_firings": dict(stats.transition_firings),
        "finish_reason": stats.finish_reason,
        "memory": processor.memory.statistics_summary(),
    }


def run_whole(model, backend):
    processor = build_processor(model, engine_options=EngineOptions(backend=backend))
    processor.load_program(get_workload("blowfish", scale=1).program)
    stats = processor.run()
    return processor, stats


def run_in_chunks(model, chunk=1000):
    """A generated run advanced ``chunk`` cycles per ``run()`` call."""
    processor = build_processor(model, backend="generated")
    processor.load_program(get_workload("blowfish", scale=1).program)
    limit = 0
    while True:
        limit += chunk
        stats = processor.run(max_cycles=limit)
        if stats.finish_reason != "max_cycles":
            return processor, stats
        assert stats.cycles == limit


@pytest.mark.parametrize("model", SMALL_CACHE_MODELS)
def test_fast_forward_matches_the_cycle_by_cycle_oracle(model):
    reference = observable(*run_whole(model, "interpreted"))
    assert reference["finish_reason"] == "halt"
    assert observable(*run_whole(model, "generated")) == reference
    assert observable(*run_in_chunks(model)) == reference


def skipping_run(trace=None):
    """A strongarm-c512/blowfish generated run; the engine counts skipped cycles."""
    processor = build_processor(
        "strongarm-c512", engine_options=EngineOptions(backend="generated", trace=trace)
    )
    processor.load_program(get_workload("blowfish", scale=1).program)
    stats = processor.run()
    return processor.engine, stats


def test_the_skip_engages_on_a_miss_heavy_run():
    engine, stats = skipping_run()
    assert stats.finish_reason == "halt"
    assert stats.cycles - engine.skipped_cycles < 0.8 * stats.cycles


def test_stall_tracing_turns_the_skip_off():
    engine, stats = skipping_run(TraceConfig(categories=("stall",)))
    assert engine.skipped_cycles == 0
    assert engine.tracer.recorded == stats.stalls
    _untraced_engine, untraced = skipping_run()
    assert (stats.cycles, stats.stalls) == (untraced.cycles, untraced.stalls)
