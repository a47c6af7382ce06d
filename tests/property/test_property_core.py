"""Property-based tests for core invariants: multisets, the register protocol,
the cache model, the static capacity plans and the multi-issue advance gate."""

from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import InstructionToken, RegRef, RegisterFile, ReservationToken
from repro.core.place import Place
from repro.core.stage import PipelineStage
from repro.cpn import Multiset
from repro.describe.substrate import IssueControl
from repro.memory import Cache, CacheConfig
from repro.processors.registry import build_processor, processor_names


@given(st.lists(st.integers(0, 5)))
@settings(max_examples=150, deadline=None)
def test_multiset_length_equals_insertions(items):
    bag = Multiset(items)
    assert len(bag) == len(items)
    for item in set(items):
        assert bag.count(item) == items.count(item)


@given(st.lists(st.integers(0, 5), min_size=1))
@settings(max_examples=150, deadline=None)
def test_multiset_remove_inverts_add(items):
    bag = Multiset(items)
    for item in items:
        bag.remove(item)
    assert len(bag) == 0


@given(st.lists(st.integers(0, 3), min_size=1, max_size=30))
@settings(max_examples=100, deadline=None)
def test_register_protocol_sequence_preserves_last_writeback(indices):
    """After any in-order sequence of reserve/writeback pairs, the register
    holds the last written value and no stale writer remains."""
    regfile = RegisterFile("gpr", 4)
    last_value = {}
    for step, index in enumerate(indices):
        ref = RegRef(regfile.register(index))
        if not ref.can_write():
            continue
        ref.reserve_write()
        ref.value = step
        ref.writeback()
        last_value[index] = step
    for index, value in last_value.items():
        assert regfile.data[index] == value
    assert all(writer is None for writer in regfile.writers)


@given(st.lists(st.integers(0, 0xFFFF), min_size=1, max_size=200))
@settings(max_examples=50, deadline=None)
def test_cache_statistics_are_consistent(addresses):
    cache = Cache(CacheConfig(size_bytes=512, line_bytes=32, associativity=2,
                              hit_latency=1, miss_penalty=10))
    for address in addresses:
        latency = cache.access(address)
        assert latency >= 1
    stats = cache.stats
    assert stats.accesses == len(addresses)
    assert stats.hits + stats.misses == stats.accesses
    assert 0.0 <= stats.hit_rate <= 1.0


@given(st.lists(st.integers(0, 63), min_size=1, max_size=100))
@settings(max_examples=50, deadline=None)
def test_repeated_accesses_to_small_working_set_eventually_hit(addresses):
    """A working set that fits in the cache cannot miss twice for one line."""
    cache = Cache(CacheConfig(size_bytes=4096, line_bytes=32, associativity=4))
    for address in addresses:
        cache.access(address * 4)
    distinct_lines = {address * 4 // 32 for address in addresses}
    assert cache.stats.misses <= len(distinct_lines)


def reference_output_capacity_available(transition, token):
    """The output-capacity clause of the enable rule, evaluated per call.

    The interpreted engine evaluated this body on every enable test before
    the rule became a static plan; it is kept here as the reference.
    """
    source_stage = transition.source.stage if transition.source is not None else None
    target = transition.target
    # Fast path: the common case of a plain instruction move with no
    # reservation outputs and no extra capacity requirements.
    if not transition.reservation_outputs and not transition.capacity_stages:
        if target is None or target.is_end:
            return True
        stage = target.stage
        if stage.capacity is None or (token is not None and stage is source_stage):
            return True
        return stage.occupancy < stage.capacity

    needed = {}
    if target is not None and not target.is_end:
        needed[target.stage] = needed.get(target.stage, 0) + 1
    for arc in transition.reservation_outputs:
        place = arc.place
        if place is not None and not place.is_end:
            needed[place.stage] = needed.get(place.stage, 0) + arc.count
    for stage, count in needed.items():
        # The instruction token leaving its current stage frees one slot
        # if it stays within the same stage.
        departing = 1 if (token is not None and stage is source_stage) else 0
        if not stage.has_room(count - departing):
            return False
    for stage in transition.capacity_stages:
        if not stage.has_room():
            return False
    return True


@lru_cache(maxsize=None)
def interpreted_net(model):
    return build_processor(model, backend="interpreted").net


def test_the_plans_cover_capacity_stages_and_reservation_outputs():
    transitions = [t for model in processor_names() for t in interpreted_net(model).transitions]
    assert any(t.is_generator and t.capacity_stages and t.capacity_plan for t in transitions)
    taken = [t for t in transitions if t.name == "branch.taken"]
    assert taken and all(t.reservation_outputs for t in taken)


@pytest.mark.parametrize("model", processor_names())
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_the_static_capacity_plan_answers_as_the_per_call_rule(model, data):
    """At any reachable occupancy (a stage never holds more than its
    capacity: ``Place.deposit`` refuses), every transition's plan allows
    a firing exactly when the per-call rule does."""
    net = interpreted_net(model)
    stages = list(net.stages.values())
    try:
        for stage in stages:
            stage._occupancy = data.draw(
                st.integers(0, stage.capacity if stage.capacity is not None else 8),
                label=stage.name,
            )
        for transition in net.transitions:
            token = None if transition.is_generator else object()
            planned = all(stage._occupancy <= limit for stage, limit in transition.capacity_plan)
            assert planned == reference_output_capacity_available(transition, token), transition.name
    finally:
        for stage in stages:
            stage._occupancy = 0


def full_scan_may_advance(token, source_stage):
    """The advance gate before its one-resident short-cut: scan every
    place of the stage for an older instruction."""
    for place in source_stage.places:
        for resident in place.tokens + place.pending:
            if resident.is_instruction and resident.seq < token.seq:
                return False
    return True


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_the_advance_gate_answers_as_the_full_scan(data):
    """Any reachable state of an in-order front end.  Tokens enter through
    ``note_fetch`` in fetch (seq) order, in groups after each of which a
    redirect may squash the youngest live ones; the live tokens then sit
    in fetch order, elders furthest along (the advance gate keeps every
    front-end stage in order): retired, issued into the stage after the
    gated 2-wide stage ``D``, in ``D``, in the stage before it.  ``D``
    holds one or two instructions and up to two residents in all,
    reservation tokens included, in the visible or the pending list of a
    two-list place.  The issued tokens went through ``note_issue``."""
    control = IssueControl(width=2)
    live = []
    for _group in range(data.draw(st.integers(1, 3), label="groups")):
        for _fetch in range(data.draw(st.integers(1, 3), label="fetched")):
            token = InstructionToken(instr=0, opclass="op")
            control.note_fetch(token)
            live.append(token)
        squashed = data.draw(st.integers(0, len(live)), label="squashed")
        for token in live[len(live) - squashed:]:
            token.squashed = True
        live = live[:len(live) - squashed]
    if not live:
        live.append(InstructionToken(instr=0, opclass="op"))
        control.note_fetch(live[0])
    issued = data.draw(st.integers(0, len(live) - 1), label="issued")
    retired = data.draw(st.integers(0, issued), label="retired")
    resident = data.draw(st.integers(1, min(2, len(live) - issued)), label="in D")
    reservations = data.draw(st.integers(0, 2 - resident), label="reservations")
    stage = PipelineStage("D", capacity=2)
    places = [Place("d%d" % index, stage, two_list=index == 1) for index in range(3)]
    upstream = Place("f", PipelineStage("F", capacity=None))
    downstream = Place("x", PipelineStage("X", capacity=None))
    for token in live[:issued]:
        control.note_issue(token, None)
    for token in live[retired:issued]:
        downstream.deposit(token, ready_cycle=0)
    in_d = live[issued:issued + resident]
    for token in in_d + [ReservationToken() for _ in range(reservations)]:
        places[data.draw(st.integers(0, 2), label="place")].deposit(token, ready_cycle=0)
    for token in live[issued + resident:]:
        upstream.deposit(token, ready_cycle=0)
    if data.draw(st.booleans(), label="commit"):
        places[1].commit_pending()
    for token in in_d:
        assert control.may_advance(token, stage) == full_scan_may_advance(token, stage)


def test_place_remove_takes_a_pending_token_and_refuses_an_absent_one():
    stage = PipelineStage("D", capacity=2)
    place = Place("d", stage, two_list=True)
    visible, pending = InstructionToken(instr=0, opclass="op"), InstructionToken(instr=1, opclass="op")
    place.deposit(visible, ready_cycle=0)
    place.commit_pending()
    place.deposit(pending, ready_cycle=0)
    place.remove(pending)
    assert (place.tokens, place.pending, pending.place, stage._occupancy) == ([visible], [], None, 1)
    with pytest.raises(ValueError, match="not stored in place 'd'"):
        place.remove(pending)
    assert (place.tokens, stage._occupancy) == ([visible], 1)
