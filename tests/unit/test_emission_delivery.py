"""Delivering emitted instruction tokens: ``ctx.emit`` on every backend.

An action sends a new token into the pipeline with ``ctx.emit(token,
place)``.  Both engines deliver it through
``SimulationEngine.deliver_emissions``, which ``fire`` and the generated
engine's called-hook sites share (``_deposit`` and ``Place.deposit``).
Each case runs on both backends and must come out the same:
a place given by name, an explicit two-list place, an end place (the token
retires), a token carrying a delay override, a full stage
(``CapacityError``) and an operation class no sub-net handles
(``ModelError``).
"""

import pytest

from repro.core import (
    CapacityError,
    EngineOptions,
    InstructionToken,
    ModelError,
    OperationClass,
    RCPN,
    generate_simulator,
)
from repro.core.engine import ENGINE_BACKENDS


def emitting_net(place, count=1, two_list=False, opclass="op", delay=None):
    """fetch emits ``count`` tokens into ``place`` once; A -> B -> end drains them.

    ``place`` is a place name, ``None`` (the sub-net's entry place) or a
    callable taking the net and returning a place object.
    """
    net = RCPN("emit-into")
    net.add_stage("A", capacity=1, delay=1)
    net.add_stage("B", capacity=2, delay=2)
    net.add_operation_class(OperationClass("op", symbols={}))
    gen = net.add_subnet("gen")
    sub = net.add_subnet("op", opclasses=("op",))
    place_a = net.add_place("A", sub, entry=True)
    place_b = net.add_place("B", sub, two_list=two_list)
    place_end = net.add_place("end", sub)
    target = place(net) if callable(place) else place
    state = {"emitted": 0}

    def fetch_guard(_t, _ctx):
        return state["emitted"] < 1

    def fetch_action(_t, ctx):
        state["emitted"] += 1
        for index in range(count):
            token = InstructionToken(instr=index, opclass=opclass, pc=0x100 + 4 * index)
            token.delay = delay
            ctx.emit(token, target)
        ctx.stop("done")

    net.add_transition("fetch", gen, guard=fetch_guard, action=fetch_action, capacity_stages=["A"])
    net.add_transition("ab", sub, source=place_a, target=place_b)
    net.add_transition("bend", sub, source=place_b, target=place_end)
    return net


def run(backend, *args, **kwargs):
    engine, _report = generate_simulator(emitting_net(*args, **kwargs), EngineOptions(backend=backend))
    stats = engine.run(max_cycles=1_000)
    return {
        "cycles": stats.cycles,
        "instructions": stats.instructions,
        "stalls": stats.stalls,
        "generated_tokens": stats.generated_tokens,
        "transition_firings": dict(stats.transition_firings),
        "finish_reason": stats.finish_reason,
    }


CASES = {
    "entry": ((None,), {}),
    "entry-delay-override": ((None,), {"delay": 5}),
    "by-name": (("op.B",), {}),
    "two-list-place": ((lambda net: net.place("op.B"),), {"two_list": True}),
    "end-place": (("op.end",), {}),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_delivery_matches_across_backends(case):
    args, kwargs = CASES[case]
    results = {backend: run(backend, *args, **kwargs) for backend in ENGINE_BACKENDS}
    reference = results["interpreted"]
    assert reference["finish_reason"] == "done"
    assert reference["instructions"] == 1
    assert reference["generated_tokens"] == 1
    for backend in ENGINE_BACKENDS[1:]:
        assert results[backend] == reference, backend


@pytest.mark.parametrize("backend", ENGINE_BACKENDS)
def test_a_place_name_routes_like_the_place(backend):
    by_name = run(backend, "op.B")
    by_object = run(backend, lambda net: net.place("op.B"))
    assert by_name == by_object
    # Entering at B skips A: no 'ab' firing.
    assert "ab" not in by_name["transition_firings"]


@pytest.mark.parametrize("backend", ENGINE_BACKENDS)
def test_an_end_place_retires_the_token(backend):
    result = run(backend, "op.end")
    assert result["instructions"] == 1
    assert "bend" not in result["transition_firings"]


@pytest.mark.parametrize("backend", ENGINE_BACKENDS)
def test_a_delay_override_sets_the_residence(backend):
    plain = run(backend, None)
    delayed = run(backend, None, delay=5)
    # Residence in A is the override (5) instead of the stage delay (1).
    assert delayed["cycles"] == plain["cycles"] + 4


@pytest.mark.parametrize("backend", ENGINE_BACKENDS)
def test_a_full_stage_raises_capacity_error(backend):
    engine, _report = generate_simulator(emitting_net(None, count=2), EngineOptions(backend=backend))
    with pytest.raises(CapacityError, match="stage 'A' has no room for a token entering place 'op.A'"):
        engine.run(max_cycles=1_000)


@pytest.mark.parametrize("backend", ENGINE_BACKENDS)
def test_an_unhandled_opclass_raises_model_error(backend):
    engine, _report = generate_simulator(emitting_net(None, opclass="bogus"), EngineOptions(backend=backend))
    with pytest.raises(ModelError, match="no sub-net handles operation class 'bogus'"):
        engine.run(max_cycles=1_000)
