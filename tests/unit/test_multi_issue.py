"""Unit tests for multi-issue modeling: IssueControl, gating, elaboration.

The integration suites (golden stats, differential, fuzz) pin the shipped
dual-issue models end to end; these tests check the mechanisms one by one —
the per-cycle arbiter, the no-overtaking front-end rule, the program-order
flush and what the elaborator/compiler derive from an IssueSpec.
"""

import pytest

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
    ctx.cycle = 1
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


def test_may_advance_blocks_overtaking_within_a_stage():
    net_stage = type("Stage", (), {})()
    place = type("Place", (), {})()
    old, young = FakeToken(), FakeToken()
    place.tokens = [old]
    place.pending = []
    net_stage.places = [place]
    control = IssueControl(width=2)
    assert control.may_advance(old, net_stage)
    assert not control.may_advance(young, net_stage)
    place.tokens = []
    assert control.may_advance(young, net_stage)


def test_reset_clears_cycle_and_order_state():
    control = IssueControl(width=2, port_limits={"p": 1})
    ctx = FakeCtx()
    token = FakeToken()
    control.note_fetch(token)
    control.note_issue(token, ctx, "p")
    control.reset()
    assert control._issued == 0
    assert not control._program_order
    fresh = FakeToken()
    control.note_fetch(fresh)
    assert control.may_issue(fresh, ctx)


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


@pytest.mark.parametrize("backend", ["interpreted", "generated"])
def test_issue_never_exceeds_width_in_any_cycle(backend):
    spec = dual_issue_alu_spec(width=2)
    processor = elaborate(spec, backend=backend)
    processor.load_program(assemble(looped(INDEPENDENT_ALUS)))
    control = processor.net.units["issue_control"]

    issued_per_cycle = []
    original = IssueControl.note_issue

    def counting(self, token, ctx, port=None):
        issued_per_cycle.append(ctx.cycle)
        original(self, token, ctx, port)

    IssueControl.note_issue = counting
    try:
        processor.run(max_cycles=10_000)
    finally:
        IssueControl.note_issue = original
    per_cycle = {}
    for cycle in issued_per_cycle:
        per_cycle[cycle] = per_cycle.get(cycle, 0) + 1
    assert per_cycle, "nothing issued"
    assert max(per_cycle.values()) <= control.width
    assert max(per_cycle.values()) == 2  # dual issue actually happened


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

    issued = []
    original = IssueControl.note_issue

    def recording(self, token, ctx, port=None):
        issued.append((ctx.cycle, token.opclass))
        original(self, token, ctx, port)

    def run(model):
        processor = build_processor(model, backend=backend)
        processor.load_program(assemble(source))
        stats = processor.run(max_cycles=100_000)
        assert stats.finish_reason == "halt"
        return stats

    IssueControl.note_issue = recording
    try:
        dual = run("strongarm-ds")
    finally:
        IssueControl.note_issue = original
    single = run("strongarm")

    per_cycle = {}
    for cycle, opclass in issued:
        per_cycle.setdefault(cycle, []).append(opclass)
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


def test_engine_reset_clears_issue_control():
    processor = build_processor("strongarm-ds")
    control = processor.net.units["issue_control"]
    control.note_fetch(FakeToken())
    processor.engine.reset()  # net.reset clears clears_with_net units
    assert not control._program_order


# -- generation reports --------------------------------------------------


@pytest.mark.parametrize(
    "model, issue, advance", [("strongarm", 0, 0), ("strongarm-ds", 7, 6), ("xscale-ds", 6, 18)]
)
def test_gates_are_guard_templates(model, issue, advance):
    from repro.codegen.runtime import splice_plan

    net = build_processor(model).net
    keys = [guard.key for guard, _action in splice_plan(net)[0] if guard is not None]
    # strongarm-ds: alu/mul/mem/memm/system issue + branch.taken/branch.not_taken.
    assert sum("/issue" in key for key in keys) == issue
    assert sum(key.endswith("/advance") for key in keys) == advance


def test_dual_issue_specs_fetch_width_wide():
    for factory in (strongarm_ds_spec, xscale_ds_spec):
        spec = factory()
        processor = elaborate(spec)
        fetch = [t for t in processor.net.transitions if t.is_generator]
        assert len(fetch) == 1
        assert fetch[0].max_firings_per_cycle == spec.issue.width == 2
