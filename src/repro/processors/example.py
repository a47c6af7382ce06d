"""The paper's Figure 4/5 example processor as a pipeline description.

This is the representative out-of-order-completion processor the paper uses
to explain RCPN: four latches ``L1 .. L4``, an ALU path ``L1 -> L2 -> L3``,
a memory path ``L1 -> L2 -> L4`` with a data-dependent memory delay, a
branch path that stalls the fetch unit with a reservation token parked in
``L1``, and a feedback (bypass) path used only for the first ALU source
operand ``s1`` — modeled, exactly as in Figure 5, with two output arcs of
different priorities from the decode place (the ``alu.issue`` /
``alu.issue_bypass`` hook pair).

The model executes the ARM7-inspired ISA restricted to the ALU, load/store,
branch and system operation classes (the instruction classes of Figure
4(b)); it is the model used by the quickstart example and by the tests that
check the Figure 5 mechanisms one by one.
"""

from __future__ import annotations

from repro.describe import (
    FetchSpec,
    HazardSpec,
    OpClassPathSpec,
    PipelineSpec,
    StageSpec,
    TransitionSpec,
    elaborate,
)

STAGES = ("L1", "L2", "L3", "L4")

#: Only the ALU first source operand may use the feedback path, and only
#: from state L3 (paper Figure 5).
S1_FORWARD_STATE = "L3"


def example_spec():
    """The Figure 4/5 example processor as a declarative description."""
    alu = OpClassPathSpec(
        "alu",
        stages=("L1", "L2", "L3"),
        transitions=(
            # [t.type = ALU, t.s1.canRead(), t.s2.canRead(), t.d.canWrite()]
            TransitionSpec("D_alu", "L1", "L2", hooks="alu.issue", priority=0),
            # [t.type = ALU, t.s1.canRead(L3), t.s2.canRead(), t.d.canWrite()]
            TransitionSpec("D_alu_bypass", "L1", "L2", hooks="alu.issue_bypass", priority=1),
            TransitionSpec("E", "L2", "L3", hooks="alu.execute"),
            TransitionSpec("We", "L3", "end", hooks="alu.writeback"),
        ),
    )
    mem = OpClassPathSpec(
        "mem",
        stages=("L1", "L2", "L4"),
        transitions=(
            TransitionSpec("D_mem", "L1", "L2", hooks="mem.issue"),
            # M: if (t.L) t.r = mem[addr] else mem[addr] = t.r; t.delay = mem.delay(addr)
            TransitionSpec("M", "L2", "L4", hooks="mem.access_combined"),
            TransitionSpec("Wm", "L4", "end", hooks="mem.writeback_simple"),
        ),
    )
    # The decode transition parks a reservation token in L1 (the stage the
    # branch itself is leaving), stalling the fetch unit for one cycle; the
    # resolution transition consumes it again.
    branch = OpClassPathSpec(
        "branch",
        stages=("L1", "L2"),
        transitions=(
            TransitionSpec(
                "D_branch", "L1", "L2", hooks="branch.decode_fig5", produces=("L1",)
            ),
            TransitionSpec(
                "B", "L2", "end", hooks="branch.resolve_fig5", consumes=("L1",)
            ),
        ),
    )
    system = OpClassPathSpec(
        "system",
        stages=("L1", "L2"),
        transitions=(
            TransitionSpec("D_system", "L1", "L2", hooks="system.issue"),
            TransitionSpec("W_system", "L2", "end", hooks="system.retire"),
        ),
    )

    return PipelineSpec(
        name="Figure5Example",
        stages=tuple(StageSpec(name) for name in STAGES),
        paths=(alu, mem, branch, system),
        hazards=HazardSpec(
            # No general bypass network: the only forwarding is the Figure 5
            # s1 feedback arc, expressed by the dedicated bypass transition.
            forward_states=(),
            front_flush_stages=("L1",),
            redirect_flush_stages=("L1", "L2"),
            s1_forward_state=S1_FORWARD_STATE,
        ),
        fetch=FetchSpec(style="sequential", capacity_stage="L1", name="F"),
        description="the paper's Figure 4/5 representative processor "
        "(feedback path, data-dependent delays, fetch-stall reservation)",
    )


def build_example_processor(memory_config=None, engine_options=None, backend=None):
    """Build the Figure 4/5 example processor and its generated simulator.

    ``backend`` selects the engine ("interpreted"/"generated"), overriding
    ``engine_options.backend`` when given.
    """
    return elaborate(
        example_spec(),
        memory_config=memory_config,
        engine_options=engine_options,
        backend=backend,
    )
