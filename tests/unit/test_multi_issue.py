"""Unit tests for multi-issue modeling: IssueControl, gating, elaboration.

The integration suites (golden stats, differential, fuzz) pin the shipped
dual-issue models end to end; these tests check the mechanisms one by one —
the per-cycle arbiter, the no-overtaking front-end rule, the program-order
flush and what the elaborator/compiler derive from an IssueSpec.
"""

import pytest

from repro.codegen.runtime import splice_plan
from repro.core.engine import EngineOptions
from repro.describe import (
    FetchSpec,
    HazardSpec,
    IssueControl,
    IssueSpec,
    PipelineSpec,
    StageSpec,
    elaborate,
    linear_path,
)
from repro.isa.assembler import assemble
from repro.observe.trace import TraceConfig
from repro.processors import build_processor, strongarm_ds_spec, xscale_ds_spec


class FakeCtx:
    def __init__(self, cycle=0):
        self.cycle = cycle


class FakeToken:
    _next = 0

    def __init__(self):
        FakeToken._next += 1
        self.seq = FakeToken._next
        self.squashed = False
        self.annotations = {}
        self.is_instruction = True


# -- IssueControl arbitration -------------------------------------------------


def test_width_budget_resets_each_cycle():
    control = IssueControl(width=2)
    ctx = FakeCtx(cycle=7)
    a, b, c = FakeToken(), FakeToken(), FakeToken()
    for token in (a, b, c):
        control.note_fetch(token)
    assert control.may_issue(a, ctx)
    control.note_issue(a, ctx)
    assert control.may_issue(b, ctx)
    control.note_issue(b, ctx)
    assert not control.may_issue(c, ctx)  # budget spent
    ctx.cycle = 8
    assert not control.may_issue(c, ctx)  # the clock alone resets nothing
    control.new_cycle()  # the engine starts a cycle
    assert control.may_issue(c, ctx)  # fresh cycle, fresh budget


def test_port_budget_is_tracked_separately():
    control = IssueControl(width=3, port_limits={"dmem": 1})
    ctx = FakeCtx()
    load, alu, second_load = FakeToken(), FakeToken(), FakeToken()
    for token in (load, alu, second_load):
        control.note_fetch(token)
    assert control.may_issue(load, ctx, "dmem")
    control.note_issue(load, ctx, "dmem")
    # An unported instruction still fits beside the load ...
    assert control.may_issue(alu, ctx)
    control.note_issue(alu, ctx)
    # ... but the memory port is exhausted while width remains.
    assert not control.may_issue(second_load, ctx, "dmem")
    control.new_cycle()
    assert control.may_issue(second_load, ctx, "dmem")


def test_issue_gate_tracks_fetch_order_and_squashes():
    control = IssueControl(width=2)
    ctx = FakeCtx()
    old, middle, young = FakeToken(), FakeToken(), FakeToken()
    for token in (old, middle, young):
        control.note_fetch(token)
    assert not control.may_issue(young, ctx)
    assert control.may_issue(old, ctx)
    control.note_issue(old, ctx)
    # A squashed elder must not block its juniors forever.
    middle.squashed = True
    assert control.may_issue(young, ctx)


class FakeStage:
    def __init__(self, occupancy):
        self._occupancy = occupancy


class FakePlace:
    def __init__(self, stage):
        self.stage = stage


def test_may_advance_blocks_overtaking_within_a_stage():
    # Tokens enter through note_fetch in fetch order; the gate runs on a
    # token resident in the stage, which counts its residents in
    # ``_occupancy`` (a reservation token keeps it at 2 below).
    stage, downstream = FakeStage(occupancy=2), FakeStage(occupancy=1)
    control = IssueControl(width=2)
    old, young = FakeToken(), FakeToken()
    for token in (old, young):
        control.note_fetch(token)
        token.place = FakePlace(stage)
    assert control.may_advance(old, stage)
    assert not control.may_advance(young, stage)
    old.place = FakePlace(downstream)  # the elder moved on
    assert control.may_advance(young, stage)
    old.place = None  # ... and retired
    assert control.may_advance(young, stage)
    stage._occupancy = 1  # alone in its stage: no link is read
    young.prev = old
    old.place = FakePlace(stage)
    assert control.may_advance(young, stage)


def test_reset_clears_cycle_and_order_state():
    control = IssueControl(width=2, port_limits={"p": 1})
    ctx = FakeCtx()
    issued, waiting = FakeToken(), FakeToken()
    control.note_fetch(issued)
    control.note_issue(issued, ctx, "p")
    control.note_fetch(waiting)  # never issues: it would block a successor
    control.reset()
    assert control._issued == 0
    fresh = FakeToken()
    control.note_fetch(fresh)
    assert control.may_issue(fresh, ctx, "p")


def test_a_squashed_predecessor_does_not_block_its_successor():
    control = IssueControl(width=2)
    ctx = FakeCtx()
    elder, wrong_path, successor = FakeToken(), FakeToken(), FakeToken()
    control.note_fetch(elder)
    control.note_fetch(wrong_path)
    assert not control.may_issue(wrong_path, ctx)
    wrong_path.squashed = True  # a redirect squashed it before the next fetch
    control.note_fetch(successor)
    assert successor.prev is elder  # linked past the squashed token
    control.note_issue(elder, ctx)
    assert control.may_issue(successor, ctx)


# -- elaboration --------------------------------------------------------------


def dual_issue_alu_spec(width=2):
    """A tiny ALU/branch/system pipeline (F -> D -> X) used by the micro tests."""
    from repro.describe import OpClassPathSpec, PlaceSpec, PredictorSpec, TransitionSpec

    stages = ("F", "D", "X")
    branch = OpClassPathSpec(
        "branch",
        stages=stages,
        extra_places=(PlaceSpec("stall", "FSTALL", name="branch.stall"),),
        transitions=(
            TransitionSpec("branch.decode", "F", "D"),
            TransitionSpec(
                "branch.taken", "D", "X", hooks="branch.taken", priority=0, produces=("stall",)
            ),
            TransitionSpec("branch.not_taken", "D", "X", hooks="branch.not_taken", priority=1),
            TransitionSpec("branch.unstall", "X", "end", consumes=("stall",), priority=0),
            TransitionSpec("branch.buffer", "X", "end", priority=1),
        ),
    )
    return PipelineSpec(
        name="TinyDual",
        stages=tuple(StageSpec(name, capacity=width) for name in stages)
        + (StageSpec("FSTALL"),),
        paths=(
            linear_path(
                "alu", stages,
                hooks={"X": "alu.issue", "end": ("alu.execute", "alu.writeback")},
            ),
            branch,
            linear_path(
                "system", stages,
                hooks={"X": "system.issue", "end": "system.retire"},
            ),
        ),
        hazards=HazardSpec(forward_states=("X",), front_flush_stages=("F", "D")),
        fetch=FetchSpec(style="sequential", capacity_stage="F", stall_stage="FSTALL"),
        predictor=PredictorSpec(kind="static_not_taken"),
        issue=IssueSpec(width=width, stage="D") if width > 1 else IssueSpec(),
    )


def run_program(spec, source, backend="interpreted"):
    processor = elaborate(spec, backend=backend)
    processor.load_program(assemble(source))
    stats = processor.run(max_cycles=100_000)
    assert stats.finish_reason == "halt"
    return processor, stats


def looped(body, iterations=32):
    """Wrap a body in a counted loop so the i-cache warms up and CPI converges."""
    return (
        "main:\n    mov r11, #%d\nloop:\n%s\n    subs r11, r11, #1\n"
        "    bgt loop\n    halt\n" % (iterations, body)
    )


INDEPENDENT_ALUS = "\n".join("    mov r%d, #%d" % (i, i + 1) for i in range(8))
DEPENDENT_CHAIN = "    mov r0, #1\n" + "\n".join("    add r0, r0, #1" for _ in range(7))


def test_dual_issue_cuts_cpi_of_independent_alu_stream():
    _, single = run_program(dual_issue_alu_spec(width=1), looped(INDEPENDENT_ALUS))
    processor, dual = run_program(dual_issue_alu_spec(width=2), looped(INDEPENDENT_ALUS))
    assert dual.instructions == single.instructions
    assert processor.register(7) == 8
    single_cpi = single.cycles / single.instructions
    dual_cpi = dual.cycles / dual.instructions
    # Eight independent moves per iteration: the wide machine should get a
    # large fraction of the ideal 2x, even with the loop-closing branch.
    assert dual_cpi < 0.75 * single_cpi


def test_dependent_chain_gains_little_from_dual_issue():
    _, single = run_program(dual_issue_alu_spec(width=1), looped(DEPENDENT_CHAIN))
    processor, dual = run_program(dual_issue_alu_spec(width=2), looped(DEPENDENT_CHAIN))
    assert processor.register(0) == 8
    # RAW hazards serialise issue: width buys far less than on the
    # independent stream (allow the fetch/decode overlap to help a bit).
    assert dual.cycles > 0.85 * single.cycles


def traced(backend):
    """Engine options recording every firing, to read the issues off."""
    return EngineOptions(backend=backend, trace=TraceConfig(categories=("firing",), capacity=1_000_000))


def issues_per_cycle(processor):
    """``{cycle: [opclass, ...]}`` of every issue (a firing of an issue
    point, as the transitions' issue plans name them), from the trace."""
    issue_points = {
        t.name for t in processor.net.transitions if t.issue_plan is not None and t.issue_plan[0] == "issue"
    }
    assert processor.tracer.dropped == 0
    per_cycle = {}
    for _category, cycle, name, _seq, opclass, _pc in processor.tracer.events:
        if name in issue_points:
            per_cycle.setdefault(cycle, []).append(opclass)
    return per_cycle


@pytest.mark.parametrize("backend", ["interpreted", "generated"])
def test_issue_never_exceeds_width_in_any_cycle(backend):
    spec = dual_issue_alu_spec(width=2)
    processor = elaborate(spec, engine_options=traced(backend))
    processor.load_program(assemble(looped(INDEPENDENT_ALUS)))
    processor.run(max_cycles=10_000)
    per_cycle = [len(classes) for classes in issues_per_cycle(processor).values()]
    assert per_cycle, "nothing issued"
    assert max(per_cycle) <= spec.issue.width
    assert max(per_cycle) == 2  # dual issue actually happened


@pytest.mark.parametrize("backend", ["interpreted", "generated"])
def test_memory_port_pairs_loads_with_alu_but_never_with_loads(backend):
    """strongarm-ds pairs alu+load freely but never two memory ops."""
    pairs = "\n".join(
        "    ldr r%d, [r8, #%d]\n    add r7, r7, #1" % (i % 6, 4 * i) for i in range(8)
    )
    source = (
        "main:\n    mov r8, #4096\n    mov r11, #32\nloop:\n%s\n"
        "    subs r11, r11, #1\n    bgt loop\n    halt\n" % pairs
    )

    def run(model, **kwargs):
        processor = build_processor(model, **kwargs)
        processor.load_program(assemble(source))
        stats = processor.run(max_cycles=100_000)
        assert stats.finish_reason == "halt"
        return processor, stats

    processor, dual = run("strongarm-ds", engine_options=traced(backend))
    _, single = run("strongarm", backend=backend)

    per_cycle = issues_per_cycle(processor)
    dual_cycles = [classes for classes in per_cycle.values() if len(classes) == 2]
    # Dual issue happens a lot on this stream ...
    assert len(dual_cycles) > 100
    # ... but the single data-cache port never admits two memory ops at once.
    assert all(classes.count("mem") + classes.count("memm") <= 1 for classes in per_cycle.values())
    # And the wide machine beats its single-issue parent outright.
    assert dual.instructions == single.instructions
    assert dual.cycles < 0.8 * single.cycles


#: A computed PC write whose shadow contains a *taken branch*: if the
#: squashed wrong-path branch leaves its fetch-stall reservation behind,
#: fetch blocks forever and the run never halts (regression for the
#: reservation-provenance squash in flush_younger).
JUMP_OVER_TAKEN_BRANCH = """
main:
    mov r1, #24
    mov pc, r1
    mov r5, #7
    b main
    mov r6, #8
    mov r7, #9
    mov r0, #42
    halt
"""


@pytest.mark.parametrize("model", ["strongarm-ds", "xscale-ds", "strongarm", "arm7-mini"])
@pytest.mark.parametrize("backend", ["interpreted", "generated"])
def test_deep_redirect_reclaims_wrong_path_branch_stall(model, backend):
    processor = build_processor(model, backend=backend)
    processor.load_program(assemble(JUMP_OVER_TAKEN_BRANCH))
    stats = processor.run(max_cycles=10_000)
    assert stats.finish_reason == "halt"
    assert stats.instructions == 4  # mov r1, mov pc, mov r0, halt
    assert processor.register(0) == 42
    assert processor.register(5) == 0  # the wrong-path shadow never retires
    assert processor.register(6) == 0


def test_slow_load_to_pc_with_pending_branch_stall_halts():
    """Single-issue regression: a cache-missing ldr pc gives the wrong-path
    taken branch time to issue and park its stall token before the redirect."""
    source = """
main:
    mov r4, #4096
    mov r1, #36
    str r1, [r4]
    ldr pc, [r4]
    b main
    mov r6, #8
    mov r7, #9
    mov r2, #1
    mov r3, #1
    mov r0, #42
    halt
"""
    for backend in ("interpreted", "generated"):
        processor = build_processor("strongarm", backend=backend)
        processor.load_program(assemble(source))
        stats = processor.run(max_cycles=10_000)
        assert stats.finish_reason == "halt", backend
        assert stats.instructions == 6
        assert processor.register(0) == 42
        assert processor.register(6) == 0


@pytest.mark.parametrize("model", ["strongarm-ds", "xscale-ds"])
def test_load_to_pc_under_dual_issue_blocks_younger_issue(model):
    """A cache-missing ldr pc must not let younger shadow instructions
    complete first (the r15 write reservation interlocks younger issue)."""
    source = """
main:
    mov r4, #4096
    mov r1, #32
    str r1, [r4]
    ldr pc, [r4]
    add r5, r5, #64
    swi #1
    mov r6, #8
    mov r7, #9
    mov r0, #42
    halt
"""
    processor = build_processor(model)
    processor.load_program(assemble(source))
    stats = processor.run(max_cycles=10_000)
    assert stats.finish_reason == "halt"
    assert stats.instructions == 6
    assert processor.register(0) == 42
    assert processor.register(5) == 0
    # The wrong-path swi in the shadow must not have produced output.
    assert list(getattr(processor.core, "output", [])) == []


def test_flush_younger_squashes_by_program_order():
    processor = build_processor("strongarm-ds")
    engine = processor.engine
    decoder = processor.decoder
    words = [0xE3A00001, 0xE3A01002, 0xE3A02003]  # mov r0/r1/r2
    tokens = [decoder.decode_word(word, pc=4 * i) for i, word in enumerate(words)]
    net = processor.net
    net.place("alu.DE").deposit(tokens[0], 0, force=True)
    net.place("alu.EM").deposit(tokens[1], 0, force=True)
    net.place("alu.FD").deposit(tokens[2], 0, force=True)

    squashed = engine.ctx.flush_younger(tokens[0].seq)
    assert squashed == 2
    assert not tokens[0].squashed
    assert tokens[1].squashed and tokens[2].squashed
    assert engine.stats.squashed == 2
    assert net.place("alu.DE").tokens == [tokens[0]]


def test_a_link_to_a_recycled_token_counts_as_gone():
    """The generated engine renews a retired token for a later fetch of its
    word, which may be the very next fetch: the link names the token
    itself, or a token of a later fetch, and gates nothing."""
    control = IssueControl(width=2)
    ctx = FakeCtx()
    token = FakeToken()
    control.note_fetch(token)
    control.note_issue(token, ctx)
    token.seq, token.annotations = FakeToken().seq, {}  # renewed for the next fetch
    control.note_fetch(token)
    assert token.prev is token
    token.place = FakePlace(FakeStage(occupancy=2))
    assert control.may_issue(token, ctx)
    assert control.may_advance(token, token.place.stage)
    younger = FakeToken()
    control.note_fetch(younger)
    token.seq, token.annotations = FakeToken().seq, {}  # retired, renewed again
    assert control.may_issue(younger, ctx)


def test_engine_reset_clears_issue_control():
    processor = build_processor("strongarm-ds")
    control = processor.net.units["issue_control"]
    control.note_fetch(FakeToken())  # never issues: it would block a successor
    processor.engine.reset()  # net.reset clears clears_with_net units
    fresh = FakeToken()
    control.note_fetch(fresh)
    assert control.may_issue(fresh, FakeCtx())


# -- generation reports --------------------------------------------------


@pytest.mark.parametrize(
    "model, issue, advance", [("strongarm", 0, 0), ("strongarm-ds", 7, 6), ("xscale-ds", 6, 18)]
)
def test_gates_are_schedule_data(model, issue, advance):
    net = build_processor(model).net
    kinds = [t.issue_plan[0] for t in net.transitions if t.issue_plan is not None]
    # strongarm-ds: alu/mul/mem/memm/system issue + branch.taken/branch.not_taken.
    assert kinds.count("issue") == issue
    assert kinds.count("advance") == advance
    # The gates are not hooks: the guards and actions are the hooks' own.
    assert not any(
        template.key.endswith(("/issue", "/advance")) or "/issue@" in template.key
        for row in splice_plan(net)[0]
        for template in row
        if template is not None
    )


def test_dual_issue_specs_fetch_width_wide():
    for factory in (strongarm_ds_spec, xscale_ds_spec):
        spec = factory()
        processor = elaborate(spec)
        fetch = [t for t in processor.net.transitions if t.is_generator]
        assert len(fetch) == 1
        assert fetch[0].max_firings_per_cycle == spec.issue.width == 2
