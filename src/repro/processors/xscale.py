"""Pipeline description of the Intel XScale pipeline (paper Figure 9).

XScale is an in-order-issue, out-of-order-completion processor with a
seven-stage main pipeline and two side pipes:

* main pipe:   ``F1 F2 ID RF X1 X2 XWB``  (fetch, fetch, decode, register
  file / issue, execute, execute 2, writeback),
* memory pipe: ``... RF D1 D2 DWB`` (address generation, data cache, writeback),
* MAC pipe:    ``... RF M1 M2 MWB`` (multiplier stages, writeback).

Because the three pipes have different depths and data-dependent latencies
(cache misses, early-termination multiplies), instructions complete out of
order; the RegRef write-reservation protocol keeps the architectural state
correct, exactly as the paper describes for its XScale model.

Branches are predicted with a branch target buffer looked up at fetch time
and resolved at issue; a misprediction flushes the front end (four-cycle
penalty).  The model is a declarative
:class:`~repro.describe.PipelineSpec`: each pipe is one
:func:`~repro.describe.linear_path` with hooks at the stages that do work.
"""

from __future__ import annotations

from repro.describe import (
    FetchSpec,
    HazardSpec,
    IssuePortSpec,
    IssueSpec,
    MemorySpec,
    PipelineSpec,
    PredictorSpec,
    StageSpec,
    elaborate,
    linear_path,
)

#: Pipeline states whose pending results may be forwarded to the issue stage.
FORWARD_STATES = ("X2", "XWB", "D2", "DWB", "M2", "MWB")

#: Front-end stages flushed on a branch misprediction.
FRONT_STAGES = ("F1", "F2", "ID")

MAIN_STAGES = ("F1", "F2", "ID", "RF", "X1", "X2", "XWB")
MEMORY_STAGES = ("D1", "D2", "DWB")
MAC_STAGES = ("M1", "M2", "MWB")
FRONT_END = ("F1", "F2", "ID", "RF")


def xscale_spec(
    main_stages=MAIN_STAGES,
    forward_states=FORWARD_STATES,
    name="XScale",
    issue_width=1,
    memory=None,
):
    """The XScale model as a declarative pipeline description.

    ``main_stages`` and ``forward_states`` are parameters so deepened
    variants (see ``repro.processors.variants``) can stretch the main pipe
    without restating the structure; ``issue_width=2`` widens the front end
    and the X pipe to two slots and issues in order out of RF, pairing an
    integer operation with a load/store or a multiply (the single-slot D1
    and M1 latches are declared as issue ports) — the ``xscale-ds``
    registry entry.  ``memory`` swaps the cache hierarchy (a
    :class:`~repro.describe.MemorySpec`) without restating the pipeline —
    the ``xscale-l2`` registry entry.
    """
    front_end = main_stages[:4]
    issue, execute = main_stages[4], main_stages[5]
    resolve_stages = front_end + (issue,)

    alu = linear_path(
        "alu", main_stages,
        hooks={issue: "alu.issue", execute: "alu.execute", "end": "alu.writeback"},
    )
    mul = linear_path(
        "mul", front_end + MAC_STAGES,
        hooks={
            "M1": "mul.issue",
            "M2": "mul.execute",  # the MAC array iterates 1-4 cycles
            "MWB": "mul.buffer",
            "end": "mul.writeback",
        },
    )
    mem = linear_path(
        "mem", front_end + MEMORY_STAGES,
        hooks={"D1": "mem.issue", "D2": "mem.agen", "DWB": "mem.access", "end": "mem.writeback"},
    )
    memm = linear_path(
        "memm", front_end + MEMORY_STAGES,
        hooks={
            "D1": "memm.issue",
            "D2": "memm.agen",
            "DWB": "memm.access",
            "end": "memm.writeback",
        },
    )
    branch = linear_path(
        "branch", resolve_stages,
        hooks={issue: "branch.resolve", "end": "branch.link_writeback"},
    )
    system = linear_path(
        "system", resolve_stages,
        hooks={issue: "system.issue", "end": "system.retire"},
    )

    if issue_width == 1:
        issue_spec = IssueSpec()
        front_flush = front_end[:3]
        wide = set()
        description = (
            "Intel XScale: 7-stage main pipe, memory and MAC side pipes, "
            "BTB prediction, out-of-order completion (paper Figure 9)"
        )
    else:
        # The front end and the integer pipe get issue_width slots; D1 and
        # M1 keep one slot each (one data-cache port, one MAC array), which
        # the issue ports make explicit.  Instructions issue out of RF in
        # program order, so a resolving branch must flush RF as well: a
        # younger wrong-path instruction can now share it.
        issue_spec = IssueSpec(
            width=issue_width,
            stage=front_end[3],
            ports=(
                IssuePortSpec("dmem", classes=("mem", "memm")),
                IssuePortSpec("mac", classes=("mul",)),
            ),
        )
        front_flush = front_end
        wide = set(main_stages)
        description = (
            "XScale-style pipeline widened to %d-issue: in-order issue out "
            "of RF pairing the X pipe with the memory or MAC pipe" % issue_width
        )
    return PipelineSpec(
        name=name,
        stages=tuple(
            StageSpec(stage, capacity=issue_width if stage in wide else 1)
            for stage in main_stages + MEMORY_STAGES + MAC_STAGES
        ),
        paths=(alu, mul, mem, memm, branch, system),
        hazards=HazardSpec(
            forward_states=forward_states,
            front_flush_stages=front_flush,
            redirect_flush_stages=front_end,
        ),
        fetch=FetchSpec(style="btb", capacity_stage=main_stages[0]),
        predictor=PredictorSpec(kind="btb", unit_name="btb", btb_entries=128),
        issue=issue_spec,
        memory=memory if memory is not None else MemorySpec(),
        description=description,
    )


def build_xscale_processor(memory_config=None, engine_options=None, backend=None):
    """Build the XScale model and generate its cycle-accurate simulator.

    ``backend`` selects the engine ("interpreted"/"generated"), overriding
    ``engine_options.backend`` when given.
    """
    return elaborate(
        xscale_spec(),
        memory_config=memory_config,
        engine_options=engine_options,
        backend=backend,
    )
