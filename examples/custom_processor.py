"""Define a brand-new pipeline as a ~40-line declarative spec.

The point of the paper is *generic* processor modeling: a designer writes a
compact pipeline description and the framework elaborates it into an RCPN
and generates the cycle-accurate simulator.  This example does exactly
that: a four-stage dual-issue-width-1 "EDU4" pipeline that exists nowhere
else in the repository, described purely as data — stages, per-class paths,
hazard configuration — with all transition behaviour coming from the shared
hook catalogue in ``repro.describe.semantics``.  No guards, no actions, no
net wiring.

Changing one behaviour is as short: an ``ArmSemantics`` subclass registers
its own source template under a built-in hook's name and is passed to
``elaborate`` as ``semantics_class``.  Here address generation takes three
cycles; the variant is built after the stock EDU4 in the same process and
runs its own text, not the stock one.

Run with:  PYTHONPATH=src python examples/custom_processor.py
"""

from repro.describe import (
    ArmSemantics, FetchSpec, HazardSpec, PipelineSpec, PredictorSpec, StageSpec,
    elaborate, linear_path,
)
from repro.describe.semantics import HOOK_TEMPLATES
from repro.describe.templates import HookTemplate, bind
from repro.workloads import get_workload

STAGES = ("IF", "ID", "EX", "WB")


def edu4_spec():
    """A four-stage educational pipeline, every path in one line each."""
    # Hooks attach to the transition *entering* the named stage.
    return PipelineSpec(
        name="EDU4",
        stages=tuple(StageSpec(s) for s in STAGES),
        paths=(
            linear_path("alu", STAGES, hooks={"EX": "alu.issue", "WB": "alu.execute", "end": "alu.writeback"}),
            linear_path("mul", STAGES, hooks={"EX": ("mul.issue", "mul.execute"), "WB": "mul.buffer", "end": "mul.writeback"}),
            linear_path("mem", STAGES, hooks={"EX": ("mem.issue", "mem.agen"), "WB": "mem.access", "end": "mem.writeback"}),
            linear_path("memm", STAGES, hooks={"EX": ("memm.issue", "memm.agen"), "WB": "memm.access", "end": "memm.writeback"}),
            linear_path("branch", ("IF", "ID", "EX"), hooks={"EX": "branch.resolve", "end": "branch.link_writeback"}),
            linear_path("system", ("IF", "ID", "EX"), hooks={"EX": "system.issue", "end": "system.retire"}),
        ),
        # Every class issues/resolves entering EX.  Keeping one issue depth
        # matters: a class issuing earlier than its elders could read
        # registers/flags before a stalled older writer has reserved them.
        hazards=HazardSpec(
            forward_states=("EX", "WB"),       # bypass network sources
            front_flush_stages=("IF", "ID"),   # squashed on mispredict/halt
            redirect_flush_stages=("IF", "ID", "EX"),  # squashed on PC writes
        ),
        fetch=FetchSpec(style="btb", capacity_stage="IF"),
        predictor=PredictorSpec(kind="btb", btb_entries=64),
        description="four-stage BTB-predicted pipeline defined entirely as a spec",
    )


class SlowAgen(ArmSemantics):
    """The shared hooks, with address generation holding a load or store
    in its stage for three cycles."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        stock = HOOK_TEMPLATES["mem.agen"]
        slow = HookTemplate(stock.key, action=stock.action + "\nt.delay_override = 3")
        self.register("mem.agen", *bind(slow, self.env))


def run_crc(processor):
    processor.load_program(get_workload("crc", scale=1).program)
    stats = processor.run()
    assert stats.finish_reason == "halt"
    return stats


def main():
    processor = elaborate(edu4_spec(), backend="generated")
    print("model:", processor.net)
    print("generated:", processor.generation_report.summary())

    stats = run_crc(processor)
    print("cycles:", stats.cycles, " instructions:", stats.instructions,
          " CPI: %.3f" % stats.cpi)
    print("r0 checksum:", processor.register(0))

    slow = run_crc(elaborate(edu4_spec(), backend="generated", semantics_class=SlowAgen))
    print("three-cycle agen: cycles:", slow.cycles, " CPI: %.3f" % slow.cpi)
    assert slow.instructions == stats.instructions
    assert slow.cycles != stats.cycles, "the mem.agen override did not take effect"


if __name__ == "__main__":
    main()
