"""Pipeline description of the StrongARM SA-110 five-stage pipeline.

Pipeline stages (paper Section 5: "StrongArm has a simple five stage
pipeline"):

========  =====================================================
stage     what the instruction does there
========  =====================================================
``FD``    instruction fetched (latency = instruction cache)
``DE``    decoded, waiting to issue
``EM``    executed (ALU result / address generated / multiply)
``MW``    memory access or result buffer
``end``   retired (register writeback happens on the way out)
========  =====================================================

The model follows the paper's structure: one instruction-independent
sub-net (the fetch unit) plus six instruction sub-nets, one per ARM
operation class.  Data hazards use the RegRef protocol with forwarding from
the ``EM``/``MW`` stages; taken branches stall the fetch unit with a
reservation token exactly as in the paper's Figure 5 example — a dedicated
``FSTALL`` latch keeps the capacity of ``FD`` free for the redirected
fetch.

The whole model is a declarative :class:`~repro.describe.PipelineSpec`;
``repro.describe.elaborate`` wires the net and
:class:`~repro.describe.semantics.ArmSemantics` supplies the transition
behaviour.
"""

from __future__ import annotations

from repro.describe import (
    FetchSpec,
    HazardSpec,
    IssuePortSpec,
    IssueSpec,
    MemorySpec,
    OpClassPathSpec,
    PipelineSpec,
    PlaceSpec,
    PredictorSpec,
    StageSpec,
    TransitionSpec,
    elaborate,
    linear_path,
)

#: Pipeline states results can be forwarded from (bypass network).
FORWARD_STATES = ("EM", "MW")

#: Stages flushed when a control transfer redirects the front end.
FRONT_STAGES = ("FD",)

PIPELINE_STAGES = ("FD", "DE", "EM", "MW")


def _stagewise(opclass, role_names, hooks):
    """A FD→DE→EM→MW→end chain with StrongARM role-based transition names."""
    names = {stage: "%s.%s" % (opclass, role) for stage, role in role_names.items()}
    return linear_path(opclass, PIPELINE_STAGES, hooks=hooks, names=names)


def strongarm_spec(issue_width=1, name="StrongARM", memory=None):
    """The StrongARM model as a declarative pipeline description.

    ``issue_width`` parameterises the front end: the default of 1 is the
    SA-110 as the paper models it; ``issue_width=2`` widens every pipeline
    latch to two slots, fetches two words per cycle and issues in order
    through a dual-issue gate with a single data-cache port (the
    ``strongarm-ds`` registry entry, see ``repro.processors.variants``).
    ``memory`` parameterises the cache hierarchy (a
    :class:`~repro.describe.MemorySpec`; the default is the split 32 KB
    L1 organisation every golden statistic was captured with) — the
    ``strongarm-l2`` and cache-sweep registry entries are built this way.
    """
    alu = _stagewise(
        "alu",
        {"DE": "decode", "EM": "issue", "MW": "buffer", "end": "writeback"},
        hooks={"EM": "alu.issue", "MW": "alu.execute", "end": "alu.writeback"},
    )
    # The multiply executes while the token moves DE -> EM: the issue hook
    # and the latency-computing execute hook share one transition.
    mul = _stagewise(
        "mul",
        {"DE": "decode", "EM": "issue", "MW": "buffer", "end": "writeback"},
        hooks={"EM": ("mul.issue", "mul.execute"), "MW": "mul.buffer", "end": "mul.writeback"},
    )
    mem = _stagewise(
        "mem",
        {"DE": "decode", "EM": "issue", "MW": "access", "end": "writeback"},
        hooks={"EM": ("mem.issue", "mem.agen"), "MW": "mem.access", "end": "mem.writeback"},
    )
    memm = _stagewise(
        "memm",
        {"DE": "decode", "EM": "issue", "MW": "access", "end": "writeback"},
        hooks={"EM": ("memm.issue", "memm.agen"), "MW": "memm.access", "end": "memm.writeback"},
    )
    # Taken branches park a reservation token in the FSTALL latch, disabling
    # the fetch transition for one cycle (paper Figure 5 mechanism).
    branch = OpClassPathSpec(
        "branch",
        stages=PIPELINE_STAGES,
        extra_places=(PlaceSpec("stall", "FSTALL", name="branch.stall"),),
        transitions=(
            TransitionSpec("branch.decode", "FD", "DE"),
            TransitionSpec(
                "branch.taken", "DE", "EM",
                hooks="branch.taken", priority=0, produces=("stall",),
            ),
            TransitionSpec("branch.not_taken", "DE", "EM", hooks="branch.not_taken", priority=1),
            TransitionSpec("branch.unstall", "EM", "MW", consumes=("stall",), priority=0),
            TransitionSpec("branch.buffer", "EM", "MW", priority=1),
            TransitionSpec("branch.writeback", "MW", "end", hooks="branch.link_writeback"),
        ),
    )
    system = _stagewise(
        "system",
        {"DE": "decode", "EM": "issue", "MW": "buffer", "end": "retire"},
        hooks={"EM": "system.issue", "end": "system.retire"},
    )

    if issue_width == 1:
        issue = IssueSpec()
        front_flush = FRONT_STAGES
        description = "StrongARM SA-110 five-stage in-order pipeline (paper Section 5)"
    else:
        # Instructions issue out of DE in program order; a taken branch must
        # flush DE too, because a younger (wrong-path) instruction can now
        # share the decode stage with the branch that is issuing.
        issue = IssueSpec(
            width=issue_width,
            stage="DE",
            ports=(IssuePortSpec("dmem", classes=("mem", "memm")),),
        )
        front_flush = FRONT_STAGES + ("DE",)
        description = (
            "StrongARM-style pipeline widened to %d-issue: in-order dual "
            "issue out of DE, one data-cache port" % issue_width
        )
    return PipelineSpec(
        name=name,
        stages=tuple(StageSpec(stage, capacity=issue_width) for stage in PIPELINE_STAGES)
        + (StageSpec("FSTALL"),),
        paths=(alu, mul, mem, memm, branch, system),
        hazards=HazardSpec(
            forward_states=FORWARD_STATES,
            front_flush_stages=front_flush,
            # FSTALL is flushed too: a squashed wrong-path taken branch must
            # not leave its fetch-stall reservation behind (the kernels never
            # write the PC mid-pipe, but `mov pc, rN` style code does).
            redirect_flush_stages=("FD", "DE", "EM", "FSTALL"),
        ),
        fetch=FetchSpec(style="sequential", capacity_stage="FD", stall_stage="FSTALL"),
        predictor=PredictorSpec(kind="static_not_taken", unit_name="predictor"),
        issue=issue,
        memory=memory if memory is not None else MemorySpec(),
        description=description,
    )


def build_strongarm_processor(memory_config=None, engine_options=None, backend=None):
    """Build the StrongARM model and generate its cycle-accurate simulator.

    ``backend`` selects the engine ("interpreted"/"generated"), overriding
    ``engine_options.backend`` when given.
    """
    return elaborate(
        strongarm_spec(),
        memory_config=memory_config,
        engine_options=engine_options,
        backend=backend,
    )
