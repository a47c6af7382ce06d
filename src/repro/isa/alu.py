"""Arithmetic/logic helpers shared by the functional simulator and the RCPN
processor models.

Keeping the datapath functions here guarantees that cycle-accurate models
and the reference instruction-set simulator compute identical results.
The datapath is table-driven: :func:`alu_operate` dispatches through a
16-entry per-opcode table and :func:`apply_shift` through a 4-entry
per-shift table, so a call builds no enum and no closure.  The rule for
the flags a data-processing instruction writes (logical opcodes take the
shifter carry and keep V, see :func:`written_carry_overflow`) lives here
once, for every user of the datapath.
"""

from __future__ import annotations

from repro.isa.flags import MASK32
from repro.isa.instructions import DataOpcode, ShiftType

#: Largest non-negative signed 32-bit value: for a 32-bit ``x``,
#: ``x > _MAX_POSITIVE`` tests bit 31 (the sign bit).
_MAX_POSITIVE = 0x7FFFFFFF


def _lsl(value, amount):
    if amount >= 32:
        return 0, amount == 32 and value & 1 == 1
    return (value << amount) & MASK32, (value >> (32 - amount)) & 1 == 1


def _lsr(value, amount):
    if amount >= 32:
        return 0, amount == 32 and value > _MAX_POSITIVE
    return value >> amount, (value >> (amount - 1)) & 1 == 1


def _asr(value, amount):
    negative = value > _MAX_POSITIVE
    if amount >= 32:
        return (MASK32 if negative else 0), negative
    signed = value - 0x100000000 if negative else value
    return (signed >> amount) & MASK32, (value >> (amount - 1)) & 1 == 1


def _ror(value, amount):
    amount &= 31
    result = ((value >> amount) | (value << (32 - amount))) & MASK32
    return result, result > _MAX_POSITIVE


#: Shift type -> ``shift(value, amount)`` for a non-zero amount.
_SHIFTS = {ShiftType.LSL: _lsl, ShiftType.LSR: _lsr, ShiftType.ASR: _asr, ShiftType.ROR: _ror}


def apply_shift(value, shift_type, amount, carry_in):
    """Apply a barrel-shifter operation.

    Returns ``(result, carry_out)``.  The ARM special cases for a shift
    amount of zero are simplified: amount 0 always passes the value through
    with the incoming carry (the encoding used by the assembler never emits
    the RRX special case).
    """
    amount &= 0xFF
    if amount == 0:
        return value & MASK32, carry_in
    try:
        shift = _SHIFTS[shift_type]
    except KeyError:
        raise ValueError("unknown shift type: %r" % (shift_type,)) from None
    return shift(value & MASK32, amount)


def _logical(result, carry, writes):
    return result, result > _MAX_POSITIVE, result == 0, carry == 1, None, writes


def _sum(x, y, carry, writes):
    full = x + y + carry
    result = full & MASK32
    # Signed overflow: both addends share a sign the result does not have.
    overflow = (x ^ result) & (y ^ result) > _MAX_POSITIVE
    return result, result > _MAX_POSITIVE, result == 0, full > MASK32, overflow, writes


#: Opcode -> ``operate(a, b, carry)`` returning :func:`alu_operate`'s tuple.
_OPERATIONS = {
    DataOpcode.AND: lambda a, b, c: _logical(a & b, c, True),
    DataOpcode.EOR: lambda a, b, c: _logical(a ^ b, c, True),
    DataOpcode.SUB: lambda a, b, c: _sum(a, b ^ MASK32, 1, True),
    DataOpcode.RSB: lambda a, b, c: _sum(b, a ^ MASK32, 1, True),
    DataOpcode.ADD: lambda a, b, c: _sum(a, b, 0, True),
    DataOpcode.ADC: lambda a, b, c: _sum(a, b, c, True),
    DataOpcode.SBC: lambda a, b, c: _sum(a, b ^ MASK32, c, True),
    DataOpcode.RSC: lambda a, b, c: _sum(b, a ^ MASK32, c, True),
    DataOpcode.TST: lambda a, b, c: _logical(a & b, c, False),
    DataOpcode.TEQ: lambda a, b, c: _logical(a ^ b, c, False),
    DataOpcode.CMP: lambda a, b, c: _sum(a, b ^ MASK32, 1, False),
    DataOpcode.CMN: lambda a, b, c: _sum(a, b, 0, False),
    DataOpcode.ORR: lambda a, b, c: _logical(a | b, c, True),
    DataOpcode.MOV: lambda a, b, c: _logical(b, c, True),
    DataOpcode.BIC: lambda a, b, c: _logical(a & (b ^ MASK32), c, True),
    DataOpcode.MVN: lambda a, b, c: _logical(b ^ MASK32, c, True),
}


def alu_operate(opcode, a, b, carry_in):
    """Execute a data-processing opcode.

    Returns ``(result, n, z, c, v, writes_result)`` where the flag values are
    what an S-suffixed instruction would write.  ``result`` is ``None`` for
    the test/compare opcodes (they produce flags only).
    """
    try:
        operate = _OPERATIONS[opcode]
    except KeyError:
        raise ValueError("unknown data-processing opcode: %r" % (opcode,)) from None
    return operate(a & MASK32, b & MASK32, 1 if carry_in else 0)


#: Logical data-processing opcodes write the barrel-shifter carry into C and
#: leave V untouched when updating flags.
LOGICAL_OPCODES = frozenset(
    DataOpcode[name] for name in ("AND", "EOR", "TST", "TEQ", "ORR", "MOV", "BIC", "MVN")
)


def written_carry_overflow(opcode, c, v, shifter_carry, previous_v):
    """The C and V a flag-setting data-processing instruction writes.

    Arithmetic opcodes write :func:`alu_operate`'s carry and overflow;
    logical ones (:data:`LOGICAL_OPCODES`) write the shifter carry and keep
    the previous V.
    """
    if opcode in LOGICAL_OPCODES:
        return shifter_carry, previous_v
    return c, v


def multiply(rm, rs, accumulator=0):
    """32x32 -> low 32-bit multiply (optionally accumulating)."""
    return (rm * rs + accumulator) & MASK32


def multiply_early_termination_cycles(rs):
    """Iterations of the ARM7 early-termination multiplier.

    The StrongARM/XScale multiplier examines the multiplier operand 8 bits
    per cycle and stops once the remaining bits are all zeros or all ones;
    this data-dependent latency is what the RCPN token delay models.
    """
    value = rs & MASK32
    for cycles in range(1, 5):
        remaining = value >> (8 * cycles)
        if remaining == 0 or remaining == (MASK32 >> (8 * cycles)):
            return cycles
    return 4
