"""The perf ledger's workloads and the correctness gate every run passes.

A workload is a set of (model, program) cells run on one engine backend,
plus the SimpleScalar-style baseline on the same programs.  Why each one
exists, and which layer it stresses, is in ``perfbench/README.md``.

Every simulation run is one operation of the benchmark.  A run fails when
it does not finish by ``halt``, when its final general-purpose registers
(r0-r14) differ from :class:`~repro.baseline.functional.FunctionalSimulator`
on the same program, when it retires a different number of instructions
than the functional reference executes, or when its simulated cycles or
instructions differ from the values recorded in ``expected.json`` (or
nothing is recorded for it).
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass

from repro.baseline.functional import FunctionalSimulator
from repro.isa import assemble
from repro.workloads import SyntheticWorkloadGenerator, get_workload, workload_names

#: Seed the benchmark was tuned on.
DEFAULT_SEED = 1
#: Seed never used while tuning: re-run a claim on it before believing it.
HELD_OUT_SEED = 7919

#: ``interp-dual-issue`` programs: the generator's default mix plus computed
#: PC writes (``jump``), which reach the deep-redirect squash path.
SYNTHETIC_MIX = {"alu": 6, "mul": 1, "load": 2, "store": 1, "branch": 2, "jump": 1}
SYNTHETIC_BODY = 36
SYNTHETIC_ITERATIONS = 12
#: Programs drawn per seed.  Single programs differ by up to 30% in CPI, so
#: one seed's aggregate is taken over many of them.
SYNTHETIC_PROGRAMS = 16
#: The fixed pool every seed draws its programs from.  Every pool program
#: has recorded counts in ``expected.json``, so a run on any seed is gated
#: on exact cycles.  Drawing 16 of 24 also keeps the aggregate of one seed
#: close to that of another.
SYNTHETIC_POOL_SEED = 20260
SYNTHETIC_POOL = 24
#: Synthetic stores are moved this many bytes above the words loads read.
#: The dual-issue StrongARM model reads load data at writeback, so a load
#: followed by a same-address store that reaches its access stage first
#: returns the store's value (minimal case: ``ldr r1, [r8, #28]`` then
#: ``str r5, [r8, #28]`` then a use of r1).  Disjoint regions keep every
#: seed clear of that known model bug while keeping the instruction mix.
SYNTHETIC_STORE_OFFSET = 64
_STORE = re.compile(r"^(\s+str r\d+, \[r8, #)(\d+)\]$", re.MULTILINE)

#: Architectural registers compared against the functional reference
#: (r15 is the PC, whose post-halt value is engine-specific).
CHECKED_REGISTERS = range(15)

SIMPLESCALAR = "simplescalar-arm"


@dataclass(frozen=True)
class WorkloadDef:
    """One benchmark workload: models x programs on one backend."""

    name: str
    models: tuple
    backend: str
    #: ``(kernel, scale)`` pairs; empty for the synthetic workload.
    kernels: tuple = ()
    synthetic: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        WorkloadDef(
            name="fig10-generated",
            models=("strongarm", "xscale"),
            backend="generated",
            kernels=tuple((kernel, 1) for kernel in workload_names()),
        ),
        WorkloadDef(
            name="small-cache",
            models=("strongarm-c512", "xscale-l2"),
            backend="generated",
            kernels=(("blowfish", 2), ("compress", 2)),
        ),
        WorkloadDef(
            name="interp-dual-issue",
            models=("strongarm-ds", "xscale-ds"),
            backend="interpreted",
            synthetic=True,
        ),
    )
}


def synthetic_pool():
    """The ``SYNTHETIC_POOL`` generators every workload seed draws from."""
    rng = random.Random(SYNTHETIC_POOL_SEED)
    return [
        SyntheticWorkloadGenerator(
            mix=SYNTHETIC_MIX,
            body_length=SYNTHETIC_BODY,
            iterations=SYNTHETIC_ITERATIONS,
            seed=rng.randrange(1 << 30),
        )
        for _ in range(SYNTHETIC_POOL)
    ]


def synthetic_generators(seed):
    """The ``SYNTHETIC_PROGRAMS`` pool generators one workload seed picks.

    ``seed=None`` gives the whole pool (for recording ``expected.json``).
    """
    pool = synthetic_pool()
    if seed is None:
        return pool
    return random.Random(seed).sample(pool, SYNTHETIC_PROGRAMS)


def synthetic_source(generator):
    """The generator's program with its stores moved above the loaded words."""
    return _STORE.sub(
        lambda m: "%s%d]" % (m.group(1), int(m.group(2)) + SYNTHETIC_STORE_OFFSET),
        generator.source(),
    )


def build_programs(workload, seed):
    """Assemble the workload's programs: ``[(program_name, program)]``.

    ``seed=None`` assembles the whole synthetic pool.  Program names key
    ``expected.json``; a synthetic program's name carries
    its generator parameters, so changing them can never match a stale
    recording.
    """
    if workload.synthetic:
        return [
            (
                "synthetic-s%d-b%d-i%d-st%d"
                % (g.seed, g.body_length, g.iterations, SYNTHETIC_STORE_OFFSET),
                assemble(synthetic_source(g)),
            )
            for g in synthetic_generators(seed)
        ]
    return [
        ("%s@%d" % (kernel, scale), get_workload(kernel, scale).program)
        for kernel, scale in workload.kernels
    ]


@dataclass(frozen=True)
class Reference:
    """Functional-simulator outcome of one program."""

    registers: tuple
    instructions: int


def functional_reference(program):
    simulator = FunctionalSimulator()
    simulator.load_program(program)
    stats = simulator.run(max_instructions=10_000_000)
    if not stats.halted:
        raise RuntimeError("functional reference did not halt")
    return Reference(
        registers=tuple(simulator.register(i) for i in CHECKED_REGISTERS),
        instructions=stats.instructions,
    )


def check_run(finish_reason, registers, cycles, instructions, reference, expected):
    """Problems with one run, as strings; an empty list means it passed.

    ``expected`` is the recorded ``(cycles, instructions)``; ``None`` (nothing
    recorded for the cell) is itself a failure.
    """
    problems = []
    if finish_reason != "halt":
        problems.append("finished by %r, not halt" % (finish_reason,))
    if tuple(registers) != reference.registers:
        problems.append("final registers differ from the functional reference")
    if instructions != reference.instructions:
        problems.append(
            "retired %d instructions, functional reference executed %d"
            % (instructions, reference.instructions)
        )
    if expected is None:
        problems.append("no recorded (cycles, instructions) for this cell")
    elif (cycles, instructions) != tuple(expected):
        problems.append(
            "simulated (cycles, instructions) = (%d, %d), recorded %r"
            % (cycles, instructions, tuple(expected))
        )
    return problems
