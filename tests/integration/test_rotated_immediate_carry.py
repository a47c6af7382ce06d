"""A rotated immediate's shifter carry-out on every model and backend.

ARM sets the shifter carry-out of a rotated immediate operand to bit 31 of
the immediate, and a flag-setting logical operation writes that carry into
C.  Below, ``cmp r1, #1`` clears C (0 - 1 borrows), then ``ands`` with the
rotated immediate ``#0xFF000000`` must set it again, so ``adc`` leaves
``r3 = 1``.  Every registered model, on every engine backend, must leave
the same r0-r7 as the functional simulator.
"""

import pytest

from repro.baseline import FunctionalSimulator
from repro.isa.assembler import assemble
from repro.processors import build_processor, processor_names

SOURCE = """
main:
    mov r1, #0
    mov r4, #0x80000001
    cmp r1, #1
    ands r2, r4, #0xFF000000
    adc r3, r1, #0
    ands r5, r4, #0xFF
    adc r6, r1, #0
    movs r7, #0x40000000
    adc r0, r1, #0
    halt
"""

BACKENDS = ("interpreted", "generated")
CASES = [(model, backend) for model in processor_names() for backend in BACKENDS]


def functional_registers():
    simulator = FunctionalSimulator()
    simulator.load_program(assemble(SOURCE))
    assert simulator.run(max_instructions=100).halted
    return [simulator.register(i) for i in range(8)]


def test_functional_reference_takes_the_carry_from_bit_31():
    # ands #0xFF000000 sets C; ands #0xFF (unrotated) keeps it; movs
    # #0x40000000 (rotated, bit 31 clear) clears it.
    assert functional_registers() == [0, 0, 0x80000000, 1, 0x80000001, 1, 1, 0x40000000]


@pytest.mark.parametrize("model,backend", CASES, ids=["%s-%s" % case for case in CASES])
def test_rotated_immediate_carry_matches_functional(model, backend):
    processor = build_processor(model, backend=backend)
    processor.load_program(assemble(SOURCE))
    assert processor.run(max_cycles=10_000).finish_reason == "halt"
    assert [processor.register(i) for i in range(8)] == functional_registers()
