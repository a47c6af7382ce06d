"""Unit tests for RCPN structure, the static scheduler and the engine.

These tests build small hand-crafted nets (independent of the ARM models)
and check the paper's mechanisms one at a time: the enable rule with stage
capacities, delays on places/transitions/tokens, reservation tokens,
priorities, the sorted-transition dispatch, reverse-topological evaluation
order and two-list (feedback) places.  The sorted-transition table is also
checked against a brute-force search on every registered model.
"""

import pytest

from repro.core import (
    EngineOptions,
    InstructionToken,
    ModelError,
    RCPN,
    ReservationToken,
    SimulationEngine,
    SimulationError,
    calculate_sorted_transitions,
    generate_simulator,
    mark_feedback_places,
    place_evaluation_order,
)
from repro.describe.elaborate import elaborate_net
from repro.processors import get_spec, processor_names


def make_linear_net(num_tokens=3, stage_delay=1):
    """fetch -> A -> B -> end, one operation class 'op'."""
    net = RCPN("linear")
    net.add_stage("A", capacity=1, delay=stage_delay)
    net.add_stage("B", capacity=1, delay=stage_delay)
    from repro.core import OperationClass

    net.add_operation_class(OperationClass("op", symbols={}))
    gen = net.add_subnet("gen")
    sub = net.add_subnet("op", opclasses=("op",))
    place_a = net.add_place("A", sub, entry=True)
    place_b = net.add_place("B", sub)
    place_end = net.add_place("end", sub)

    state = {"emitted": 0}

    def fetch_guard(_t, _ctx):
        return state["emitted"] < num_tokens

    def fetch_action(_t, ctx):
        state["emitted"] += 1
        pc = 0x100 + 4 * state["emitted"]
        ctx.emit(InstructionToken(instr=state["emitted"], opclass="op", pc=pc))
        if state["emitted"] >= num_tokens:
            ctx.stop("done")

    net.add_transition("fetch", gen, guard=fetch_guard, action=fetch_action,
                       capacity_stages=["A"])
    net.add_transition("ab", sub, source=place_a, target=place_b)
    net.add_transition("bend", sub, source=place_b, target=place_end)
    return net, state


# -- structural construction and validation -------------------------------------

def test_duplicate_stage_and_place_names_rejected():
    net = RCPN("dup")
    net.add_stage("X")
    with pytest.raises(ModelError):
        net.add_stage("X")
    sub = net.add_subnet("s", opclasses=("op",))
    net.add_place("X", sub, name="p")
    with pytest.raises(ModelError):
        net.add_place("X", sub, name="p")


def test_operation_class_must_have_a_subnet():
    from repro.core import OperationClass

    net = RCPN("bad")
    net.add_stage("A")
    net.add_operation_class(OperationClass("orphan", symbols={}))
    net.add_subnet("gen")
    net.add_transition("t", "gen", capacity_stages=["A"])
    with pytest.raises(ModelError):
        net.validate()


def test_subnet_without_entry_place_rejected():
    from repro.core import OperationClass

    net = RCPN("noentry")
    net.add_stage("A")
    net.add_operation_class(OperationClass("op", symbols={}))
    net.add_subnet("gen")
    sub = net.add_subnet("op", opclasses=("op",))
    net.add_place("A", sub)  # not marked as entry
    with pytest.raises(ModelError):
        net.validate()


def test_complexity_counts_places_transitions_arcs():
    net, _ = make_linear_net()
    size = net.complexity()
    assert size["places"] == 3
    assert size["transitions"] == 3
    assert size["subnets"] == 2
    assert size["arcs"] >= 4


# -- static analysis --------------------------------------------------------------

def test_sorted_transitions_table_orders_by_priority():
    net, _ = make_linear_net()
    table = calculate_sorted_transitions(net)
    names = [t.name for t in table[("op.A", "op")]]
    assert names == ["ab"]
    assert table[("op.end", "op")] == ()


@pytest.mark.parametrize("model", processor_names())
def test_sorted_transitions_match_a_brute_force_search(model):
    """Figure 6's table holds, per (place, opclass), what a search at every call would find."""
    net = elaborate_net(get_spec(model))[0]
    table = calculate_sorted_transitions(net)
    for place in net.places.values():
        for opclass in net.operation_classes:
            subnet = net.subnet_for(opclass)
            found = [t for t in net.transitions if t.source is place and t.subnet is subnet]
            found.sort(key=lambda t: t.priority)
            assert table[(place.name, opclass)] == tuple(found)


def test_place_evaluation_order_is_reverse_topological():
    net, _ = make_linear_net()
    order = [p.name for p in place_evaluation_order(net)]
    assert order.index("op.B") < order.index("op.A")
    assert order.index("op.end") < order.index("op.B")


def test_feedback_place_detection_on_self_loop():
    from repro.core import OperationClass

    net = RCPN("loop")
    net.add_stage("A", capacity=2)
    net.add_operation_class(OperationClass("op", symbols={}))
    net.add_subnet("gen")
    sub = net.add_subnet("op", opclasses=("op",))
    place_a = net.add_place("A", sub, entry=True)
    net.add_place("end", sub)
    net.add_transition("self", sub, source=place_a, target=place_a)
    net.add_transition("out", sub, source=place_a, target="op.end", priority=1)
    feedback = {p.name for p in mark_feedback_places(net)}
    assert "op.A" in feedback


def test_generator_report_contents():
    net, _ = make_linear_net()
    _, report = generate_simulator(net)
    assert report.model_name == "linear"
    assert "fetch" in report.generator_transitions
    assert report.dispatch_entries == 3  # 3 places x 1 operation class


# -- engine behaviour ---------------------------------------------------------------

def test_tokens_flow_through_linear_pipeline_and_retire():
    net, _ = make_linear_net(num_tokens=3)
    engine = SimulationEngine(net)
    stats = engine.run(max_cycles=50)
    assert stats.instructions == 3
    assert stats.finished
    assert stats.retired_by_class["op"] == 3


def test_pipeline_throughput_is_one_token_per_cycle():
    net, _ = make_linear_net(num_tokens=5)
    engine = SimulationEngine(net)
    stats = engine.run(max_cycles=50)
    # 5 tokens through a 2-deep pipe: latency 3 + 4 extra tokens.
    assert stats.instructions == 5
    assert stats.cycles <= 5 + 4


def test_stage_capacity_limits_occupancy():
    net, _ = make_linear_net(num_tokens=4)
    engine = SimulationEngine(net)
    for _ in range(3):
        engine.step()
        for stage_name in ("A", "B"):
            assert net.stage(stage_name).occupancy <= 1


def test_place_delay_slows_token_progress():
    fast_net, _ = make_linear_net(num_tokens=3, stage_delay=1)
    slow_net, _ = make_linear_net(num_tokens=3, stage_delay=3)
    fast = SimulationEngine(fast_net).run(max_cycles=100)
    slow = SimulationEngine(slow_net).run(max_cycles=100)
    assert slow.cycles > fast.cycles


def test_token_delay_overrides_place_delay():
    net, _ = make_linear_net(num_tokens=1)
    # Inject a large token delay in the A->B transition.
    for transition in net.transitions:
        if transition.name == "ab":
            transition.action = lambda t, ctx: setattr(t, "delay", 10)
    baseline_net, _ = make_linear_net(num_tokens=1)
    slow = SimulationEngine(net).run(max_cycles=100)
    fast = SimulationEngine(baseline_net).run(max_cycles=100)
    assert slow.cycles >= fast.cycles + 9


def test_transition_priorities_choose_lowest_first():
    from repro.core import OperationClass

    net = RCPN("prio")
    net.add_stage("A")
    net.add_operation_class(OperationClass("op", symbols={}))
    gen = net.add_subnet("gen")
    sub = net.add_subnet("op", opclasses=("op",))
    place_a = net.add_place("A", sub, entry=True)
    net.add_place("end", sub)
    taken = []
    net.add_transition("low", sub, source=place_a, target="op.end", priority=1,
                       action=lambda t, ctx: taken.append("low"))
    net.add_transition("high", sub, source=place_a, target="op.end", priority=0,
                       action=lambda t, ctx: taken.append("high"))
    emitted = []

    def fetch(_t, ctx):
        if not emitted:
            emitted.append(1)
            ctx.emit(InstructionToken(instr=1, opclass="op"))
            ctx.stop()

    net.add_transition("fetch", gen, action=fetch, capacity_stages=["A"])
    SimulationEngine(net).run(max_cycles=20)
    assert taken == ["high"]


def test_guarded_priority_falls_back_to_next_arc():
    from repro.core import OperationClass

    net = RCPN("fallback")
    net.add_stage("A")
    net.add_operation_class(OperationClass("op", symbols={}))
    gen = net.add_subnet("gen")
    sub = net.add_subnet("op", opclasses=("op",))
    place_a = net.add_place("A", sub, entry=True)
    net.add_place("end", sub)
    taken = []
    net.add_transition("blocked", sub, source=place_a, target="op.end", priority=0,
                       guard=lambda t, ctx: False,
                       action=lambda t, ctx: taken.append("blocked"))
    net.add_transition("open", sub, source=place_a, target="op.end", priority=1,
                       action=lambda t, ctx: taken.append("open"))
    emitted = []

    def fetch(_t, ctx):
        if not emitted:
            emitted.append(1)
            ctx.emit(InstructionToken(instr=1, opclass="op"))
            ctx.stop()

    net.add_transition("fetch", gen, action=fetch, capacity_stages=["A"])
    SimulationEngine(net).run(max_cycles=20)
    assert taken == ["open"]


def test_reservation_token_blocks_capacity_until_consumed():
    from repro.core import OperationClass

    net = RCPN("reserve")
    net.add_stage("A", capacity=1)
    net.add_operation_class(OperationClass("op", symbols={}))
    gen = net.add_subnet("gen")
    sub = net.add_subnet("op", opclasses=("op",))
    place_a = net.add_place("A", sub, entry=True)
    net.add_place("end", sub)
    net.add_transition("drain", sub, source=place_a, target="op.end")
    state = {"emitted": 0}

    def fetch_guard(_t, _ctx):
        return state["emitted"] < 1

    def fetch(_t, ctx):
        state["emitted"] += 1
        ctx.emit(InstructionToken(instr=1, opclass="op"))
        ctx.stop()

    net.add_transition("fetch", gen, guard=fetch_guard, action=fetch, capacity_stages=["A"])
    engine = SimulationEngine(net)
    # Park a reservation token in A before starting: fetch must stall.
    place_a.deposit(ReservationToken(), ready_cycle=0, force=True)
    engine.step()
    assert state["emitted"] == 0
    place_a.take_reservation()
    net.stage("A")  # capacity freed by take_reservation through place.remove
    engine.step()
    assert state["emitted"] == 1


def test_flush_stage_squashes_tokens_and_releases_reservations():
    from repro.core import OperationClass, RegisterFile, RegRef

    net, _ = make_linear_net(num_tokens=1)
    regfile = RegisterFile("r", 1)
    engine = SimulationEngine(net)
    ref = RegRef(regfile.register(0))
    token = InstructionToken(instr=0, opclass="op", operands={"d": ref})
    ref.token = token
    ref.reserve_write()
    net.place("op.A").deposit(token, ready_cycle=0, force=True)
    squashed = engine.flush_stage("A")
    assert squashed == 1
    assert token.squashed
    assert regfile.writers[0] is None


def test_flush_stage_skips_empty_places(monkeypatch):
    net, _ = make_linear_net(num_tokens=1)
    engine = SimulationEngine(net)
    flushed = []
    original = SimulationEngine.flush_place

    def recording(self, place, cause=None):
        flushed.append(place.name)
        return original(self, place, cause)

    monkeypatch.setattr(SimulationEngine, "flush_place", recording)
    assert engine.flush_stage("A") == 0
    assert flushed == []
    token = InstructionToken(instr=0, opclass="op")
    net.place("op.A").deposit(token, ready_cycle=0, force=True)
    assert engine.flush_stage("A") == 1
    assert flushed == ["op.A"] and token.squashed


def deadlock_message(backend):
    """The SimulationError text of a linear net whose B -> end never fires."""
    net, _ = make_linear_net(num_tokens=1)
    for transition in net.transitions:
        if transition.name == "bend":
            transition.guard = lambda t, ctx: False
        elif transition.name == "fetch":
            # Hand-built tokens are numbered by a process-wide counter; pin
            # the emitted token's seq so two builds report the same text.
            def pinned_fetch(t, ctx, _action=transition.action):
                _action(t, ctx)
                ctx._engine._emission_queue[-1][0].seq = 1

            transition.action = pinned_fetch
    engine, _report = generate_simulator(net, EngineOptions(stall_limit=50, backend=backend))
    with pytest.raises(SimulationError) as excinfo:
        engine.run(max_cycles=10_000)
    return str(excinfo.value)


@pytest.mark.parametrize("backend", ["interpreted", "generated"])
def test_deadlocked_model_raises_simulation_error(backend):
    message = deadlock_message(backend)
    assert message.startswith("no transition fired for 50 consecutive cycles at cycle ")
    # The blocked token explains the deadlock: where it sits and which pc.
    assert "resident instruction tokens: op.B pc=0x104 opclass=op seq=1 " in message
    assert "ready_cycle=" in message
    # Same cycle, idle count and resident tokens on every backend, however
    # the generated engine got there (it fast-forwards over idle cycles).
    assert message == deadlock_message("interpreted")


def test_deadlock_report_caps_the_resident_token_list():
    net, _ = make_linear_net(num_tokens=1)
    engine = SimulationEngine(net)
    place = net.place("op.B")
    for pc in range(10):
        place.deposit(InstructionToken(instr=pc, opclass="op", pc=pc), ready_cycle=0, force=True)
    report = engine._resident_tokens_report()
    assert report.count("opclass=op") == 8
    assert report.endswith(" (+2 more)")


def test_max_cycles_limit_reported():
    net, _ = make_linear_net(num_tokens=2)
    engine = SimulationEngine(net)
    stats = engine.run(max_cycles=1)
    assert stats.finish_reason == "max_cycles"


def test_engine_reset_clears_dynamic_state():
    net, state = make_linear_net(num_tokens=2)
    engine = SimulationEngine(net)
    engine.run(max_cycles=50)
    engine.reset()
    state["emitted"] = 0
    assert engine.cycle == 0
    assert engine.pipeline_empty()
    stats = engine.run(max_cycles=50)
    assert stats.instructions == 2


def test_statistics_summary_fields():
    net, _ = make_linear_net(num_tokens=2)
    stats = SimulationEngine(net).run(max_cycles=50)
    summary = stats.summary()
    assert summary["instructions"] == 2
    assert summary["cycles"] == stats.cycles
    assert stats.cpi == stats.cycles / 2


# -- backend selection and the generated backend on hand-built nets ------------------


def test_generate_simulator_backend_selection():
    from repro.codegen import GeneratedEngine

    net, _ = make_linear_net()
    engine, report = generate_simulator(net, EngineOptions(backend="generated"))
    assert isinstance(engine, GeneratedEngine)
    assert report.backend == "generated"
    assert report.codegen_cache in ("emitted", "memory")  # memoised like any net

    engine2, report2 = generate_simulator(make_linear_net()[0])
    assert type(engine2) is SimulationEngine
    assert report2.backend == "interpreted"
    assert report2.codegen_cache is None


@pytest.mark.parametrize("stage_delay", [0, 1, 2])
def test_generated_matches_interpreted_on_linear_net(stage_delay):
    results = {}
    for backend in ("interpreted", "generated"):
        net, _ = make_linear_net(num_tokens=5, stage_delay=stage_delay)
        engine, _ = generate_simulator(net, EngineOptions(backend=backend))
        stats = engine.run(max_cycles=200)
        results[backend] = (
            stats.cycles,
            stats.instructions,
            stats.stalls,
            dict(stats.transition_firings),
            stats.finish_reason,
        )
    assert results["generated"] == results["interpreted"]
    assert results["generated"][4] == "done"


def test_generated_flush_stage_squashes_tokens():
    net, _ = make_linear_net(num_tokens=3)
    engine, _ = generate_simulator(net, EngineOptions(backend="generated"))
    engine.step()  # fetch deposits the first token into op.A
    place_a = net.place("op.A")
    assert place_a.occupancy() == 1
    assert engine.flush_stage("A") == 1
    assert place_a.occupancy() == 0
    assert engine.stats.squashed == 1
