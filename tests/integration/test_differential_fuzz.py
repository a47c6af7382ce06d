"""Randomized differential testing of every registered processor model.

The six paper kernels exercise fixed instruction sequences; this layer
fuzzes the *mix*: nine seeded :class:`SyntheticWorkloadGenerator`
programs (ALU-heavy, branchy, memory-bound, multiply chains ...) run on
every model the registry knows, on every engine backend, and every run
is checked two ways:

* **architectural** — the retired instruction count, the architectural
  registers, the condition flags and the syscall output must match a
  functional (instruction-set) simulation of the same binary; timing
  models may reorder completion, never results;
* **backend** — the interpreted and generated engines
  must produce bit-identical statistics (cycles, stalls, squashes,
  per-transition firing counts), the same contract
  ``test_backend_equivalence.py`` enforces on the paper kernels.

The seeds below are fixed so failures reproduce exactly; to investigate
one, rebuild the program with the same constructor arguments (see
EXPERIMENTS.md, "Differential fuzzing").
"""

import pytest

from repro.baseline import FunctionalSimulator
from repro.isa.assembler import assemble
from repro.processors import build_processor, get_spec, processor_names
from repro.workloads.generator import SyntheticWorkloadGenerator

#: The fuzz corpus: name -> generator settings.  Mixes are chosen to lean
#: on different subsystems (issue ports, bypass network, branch handling,
#: block-free memory traffic); seeds are arbitrary but frozen.
FUZZ_MIXES = {
    "paper_mix": dict(seed=1011, mix=None),
    "alu_heavy": dict(seed=1102, mix={"alu": 9, "branch": 1}),
    "branchy": dict(seed=1203, mix={"alu": 2, "branch": 5}),
    "memory_bound": dict(seed=1304, mix={"alu": 2, "load": 4, "store": 3}),
    "mul_chains": dict(seed=1405, mix={"alu": 2, "mul": 5}),
    "load_use": dict(seed=1506, mix={"alu": 4, "load": 5, "branch": 1}),
    "jumpy": dict(seed=1607, mix={"alu": 4, "jump": 2, "branch": 1}),
    "kitchen_sink": dict(
        seed=1708,
        mix={"alu": 4, "mul": 2, "load": 3, "store": 2, "branch": 3, "jump": 1},
    ),
    # Flag-setting logical ops on rotated immediates and shifted registers,
    # each followed by a carry/overflow consumer: the shifter carry-out
    # becomes architectural state.
    "datapath": dict(seed=1809, mix={"alu": 2, "datapath": 5, "branch": 1}),
}

BODY_LENGTH = 20
ITERATIONS = 12

#: Generator category -> operation class the emitted instructions decode to.
CATEGORY_CLASSES = {
    "alu": "alu",
    "mul": "mul",
    "load": "mem",
    "store": "mem",
    "branch": "branch",
    "jump": "alu",  # mov pc, rN is a data-processing instruction
    "datapath": "alu",
}


def required_opclasses(mix):
    """Operation classes a mix needs a model to implement.

    Every synthetic program carries an ALU prologue, a subs/bgt loop
    counter and a swi/halt epilogue, so alu, branch and system are always
    required.
    """
    needed = {"alu", "branch", "system"}
    weights = mix or SyntheticWorkloadGenerator().mix
    for category, weight in weights.items():
        if weight > 0:
            needed.add(CATEGORY_CLASSES[category])
    return needed


def eligible_models(mix):
    models = []
    for name in processor_names():
        spec = get_spec(name)
        if spec is None:
            continue  # legacy builder without a declarative class list
        if required_opclasses(mix) <= set(spec.opclasses):
            models.append(name)
    return models


_PROGRAMS = {}


def fuzz_program(name):
    program = _PROGRAMS.get(name)
    if program is None:
        settings = FUZZ_MIXES[name]
        generator = SyntheticWorkloadGenerator(
            mix=settings["mix"],
            body_length=BODY_LENGTH,
            iterations=ITERATIONS,
            seed=settings["seed"],
        )
        program = _PROGRAMS[name] = generator.program()
    return program


_FUNCTIONAL = {}


def functional_reference(name):
    """Architectural ground truth for one fuzz program (memoized)."""
    reference = _FUNCTIONAL.get(name)
    if reference is None:
        simulator = FunctionalSimulator()
        simulator.load_program(fuzz_program(name))
        stats = simulator.run(max_instructions=1_000_000)
        assert stats.halted, "fuzz program %r does not halt" % name
        reference = _FUNCTIONAL[name] = {
            "instructions": stats.instructions,
            "registers": [simulator.register(i) for i in range(15)],
            "flags": simulator.state.flags,
            "output": list(simulator.output),
        }
    return reference


def run_model(model, name, backend):
    processor = build_processor(model, backend=backend)
    processor.load_program(fuzz_program(name))
    stats = processor.run(max_cycles=1_000_000)
    return processor, stats


def observable_state(processor, stats):
    return {
        "cycles": stats.cycles,
        "instructions": stats.instructions,
        "stalls": stats.stalls,
        "squashed": stats.squashed,
        "generated_tokens": stats.generated_tokens,
        "retired_by_class": dict(stats.retired_by_class),
        "transition_firings": dict(stats.transition_firings),
        "finish_reason": stats.finish_reason,
        "registers": [processor.register(i) for i in range(16)],
        "flags": processor.flags(),
    }


FUZZ_CASES = [
    (name, model) for name in FUZZ_MIXES for model in eligible_models(FUZZ_MIXES[name]["mix"])
]


def test_every_model_is_fuzzed():
    """The corpus must cover each registered model with at least one mix."""
    covered = {model for _, model in FUZZ_CASES}
    assert covered == set(processor_names())


@pytest.mark.parametrize("name,model", FUZZ_CASES, ids=["%s-%s" % case for case in FUZZ_CASES])
def test_fuzzed_model_matches_functional_and_backends_agree(name, model):
    reference = functional_reference(name)

    interpreted, istats = run_model(model, name, "interpreted")
    assert istats.finish_reason == "halt"

    # Architectural agreement with the functional baseline.
    assert istats.instructions == reference["instructions"]
    assert [interpreted.register(i) for i in range(15)] == reference["registers"]
    assert interpreted.flags() == reference["flags"]
    assert list(getattr(interpreted.core, "output", [])) == reference["output"]

    # Bit-identical statistics across engine backends.
    reference = observable_state(interpreted, istats)
    generated, gstats = run_model(model, name, "generated")
    assert observable_state(generated, gstats) == reference


#: A younger store to the address an older load reads.  On a dual-issue
#: pipeline the store can reach the memory stage before the load writes
#: back, so a load that read memory at writeback saw the store's value.
LOAD_STORE_ORDER = {
    "ldr_str": """
main:
    mov r8, #32768
    mov r5, #77
    mov r4, #3
loop:
    ldr r1, [r8, #28]
    str r5, [r8, #28]
    eor r2, r2, r1
    add r5, r5, #1
    subs r4, r4, #1
    bgt loop
    mov r0, r2
    swi #1
    halt
""",
    "ldm_stm": """
main:
    mov r8, #32768
    mov r5, #77
    mov r6, #5
    mov r4, #3
loop:
    ldmia r8, {r1, r3}
    stmia r8, {r5, r6}
    eor r2, r2, r1
    eor r2, r2, r3
    add r5, r5, #1
    add r6, r6, #2
    subs r4, r4, #1
    bgt loop
    mov r0, r2
    swi #1
    halt
""",
}

LOAD_STORE_CASES = [
    (program, model)
    for program in LOAD_STORE_ORDER
    for model in processor_names()
    if program == "ldr_str" or "memm" in get_spec(model).opclasses
]


@pytest.mark.parametrize(
    "program,model", LOAD_STORE_CASES, ids=["%s-%s" % case for case in LOAD_STORE_CASES]
)
def test_younger_store_does_not_leak_into_older_load(program, model):
    binary = assemble(LOAD_STORE_ORDER[program])
    functional = FunctionalSimulator()
    functional.load_program(binary)
    functional.run(max_instructions=10_000)
    expected = [functional.register(i) for i in range(15)]

    for backend in ("interpreted", "generated"):
        processor = build_processor(model, backend=backend)
        processor.load_program(binary)
        stats = processor.run(max_cycles=100_000)
        assert stats.finish_reason == "halt", backend
        assert [processor.register(i) for i in range(15)] == expected, backend
