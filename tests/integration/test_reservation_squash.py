"""Squashes that remove a reservation token, on both backends.

A reservation token (a dataless token marking its stage occupied) leaves
its place when an input arc consumes it, when ``ctx.flush_stage`` clears
its place, or when ``ctx.flush_younger`` withdraws it with the younger
instruction that parked it.  The built-in models' workloads reach only
the first path, so these hand-built nets drive the other two: a fetch
stalled on a reservation must resume once the squash removes it, and the
generated engine must match the interpreted one statistic for statistic.
Both engines make a fresh reservation token per deposit; the generated
one keeps no pool of them.
"""

import pytest

from repro.core import EngineOptions, InstructionToken, OperationClass, RCPN, generate_simulator
from repro.core.engine import ENGINE_BACKENDS


def stalling_net(park, squash, fetches):
    """fetch -> A -> B -> C -> end, with a fetch-stall place ``stall``.

    ``ab`` moves a token whose pc ``park(pc)`` picks into B and parks a
    reservation in ``stall``; fetch is disabled while ``stall`` holds one
    and stops after ``fetches`` tokens.  ``cend`` retires a token into end
    and calls ``squash(t, ctx)`` first.
    """
    net = RCPN("reservation-squash")
    for name, delay in (("A", 1), ("B", 1), ("C", 4), ("S", 1)):
        net.add_stage(name, capacity=1, delay=delay)
    net.add_operation_class(OperationClass("op", symbols={}))
    gen = net.add_subnet("gen")
    sub = net.add_subnet("op", opclasses=("op",))
    place_a = net.add_place("A", sub, entry=True)
    place_b = net.add_place("B", sub)
    place_c = net.add_place("C", sub)
    place_end = net.add_place("end", sub)
    stall = net.add_place("S", sub, name="stall")
    state = {"fetched": 0}

    def fetch_guard(_t, _ctx):
        return state["fetched"] < fetches and not stall.has_reservation()

    def fetch_action(_t, ctx):
        ctx.emit(InstructionToken(instr=state["fetched"], opclass="op", pc=0x100 + 4 * state["fetched"]))
        state["fetched"] += 1
        if state["fetched"] == fetches:
            ctx.stop("done")

    net.add_transition("fetch", gen, guard=fetch_guard, action=fetch_action, capacity_stages=["A"])
    net.add_transition(
        "ab_park", sub, source=place_a, target=place_b, produces=[stall],
        guard=lambda t, _ctx: park(t.pc),
    )
    net.add_transition("ab", sub, source=place_a, target=place_b, priority=1)
    net.add_transition("bc", sub, source=place_b, target=place_c)
    net.add_transition("cend", sub, source=place_c, target=place_end, action=squash)
    return net


def flush_stall_stage(_t, ctx):
    ctx.flush_stage("S")


def redirect_at_first(t, ctx):
    if t.pc == 0x100:
        ctx.flush_younger(t.seq)


#: (net, instructions retired, tokens squashed) per squash path.
CASES = {
    # Every token parks a reservation on its way through B, and its own
    # retirement clears the stall stage: fetch resumes after each one.
    "flush_stage": (lambda: stalling_net(lambda pc: True, flush_stall_stage, 4), 4, 0),
    # The second token parks a reservation behind the first, which
    # redirects as it retires: the second is squashed, its reservation
    # withdrawn, and the third is fetched.
    "flush_younger": (lambda: stalling_net(lambda pc: pc == 0x104, redirect_at_first, 3), 2, 1),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_a_squashed_reservation_lets_fetch_resume(case):
    build, instructions, squashed = CASES[case]
    results = {}
    for backend in ENGINE_BACKENDS:
        engine, _report = generate_simulator(build(), EngineOptions(backend=backend))
        stats = engine.run(max_cycles=1_000)
        assert stats.finish_reason == "done", backend
        assert (stats.instructions, stats.squashed) == (instructions, squashed), backend
        assert all(stage._occupancy == 0 for stage in engine.net.stages.values()), backend
        results[backend] = (
            stats.cycles, stats.stalls, stats.squashed, dict(stats.transition_firings),
        )
        if backend == "generated":
            assert "pool" not in engine.source
            assert "RES(t.seq)" in engine.source
    assert results["generated"] == results["interpreted"]
