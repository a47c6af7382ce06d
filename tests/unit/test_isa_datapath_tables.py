"""The table-driven datapath against the case analysis it replaced.

``alu_operate``, ``apply_shift`` and ``condition_passes`` dispatch through
per-opcode, per-shift and per-condition tables.  The ``_oracle_*``
functions below are the earlier if-chain implementations, copied verbatim,
and every table entry is compared with them: exhaustively over edge
operands, shift amounts and flag nibbles, and on hypothesis-drawn values.
Results must be equal *and* of the same types (``bool`` flags, ``None``
for a logical op's V).
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.isa.alu import alu_operate, apply_shift
from repro.isa.conditions import Condition, condition_passes, condition_passes_nzcv
from repro.isa.flags import MASK32, ConditionFlags, to_signed, to_unsigned
from repro.isa.instructions import DataOpcode, ShiftType


# -- oracles: the earlier implementations, verbatim ----------------------------


def _oracle_apply_shift(value, shift_type, amount, carry_in):
    value = to_unsigned(value)
    amount = int(amount) & 0xFF
    if amount == 0:
        return value, carry_in
    shift_type = ShiftType(shift_type)
    if shift_type is ShiftType.LSL:
        if amount >= 32:
            carry = bool(value & 1) if amount == 32 else False
            return 0, carry
        result = (value << amount) & MASK32
        carry = bool((value >> (32 - amount)) & 1)
        return result, carry
    if shift_type is ShiftType.LSR:
        if amount >= 32:
            carry = bool(value >> 31) if amount == 32 else False
            return 0, carry
        result = value >> amount
        carry = bool((value >> (amount - 1)) & 1)
        return result, carry
    if shift_type is ShiftType.ASR:
        signed = to_signed(value)
        if amount >= 32:
            result = to_unsigned(-1 if signed < 0 else 0)
            return result, bool(value >> 31)
        result = to_unsigned(signed >> amount)
        carry = bool((value >> (amount - 1)) & 1)
        return result, carry
    # ROR
    amount %= 32
    if amount == 0:
        return value, bool(value >> 31)
    result = ((value >> amount) | (value << (32 - amount))) & MASK32
    carry = bool((result >> 31) & 1)
    return result, carry


def _oracle_alu_operate(opcode, a, b, carry_in):
    opcode = DataOpcode(opcode)
    a = to_unsigned(a)
    b = to_unsigned(b)
    carry_bit = 1 if carry_in else 0

    def logical(result, carry=carry_in):
        result &= MASK32
        return result, bool(result >> 31), result == 0, bool(carry), None

    def add(x, y, cin):
        full = x + y + cin
        result = full & MASK32
        carry = full > MASK32
        overflow = (to_signed(x) + to_signed(y) + cin) != to_signed(result)
        return result, bool(result >> 31), result == 0, carry, overflow

    if opcode is DataOpcode.AND or opcode is DataOpcode.TST:
        result, n, z, c, v = logical(a & b)
    elif opcode is DataOpcode.EOR or opcode is DataOpcode.TEQ:
        result, n, z, c, v = logical(a ^ b)
    elif opcode is DataOpcode.SUB or opcode is DataOpcode.CMP:
        result, n, z, c, v = add(a, (~b) & MASK32, 1)
    elif opcode is DataOpcode.RSB:
        result, n, z, c, v = add(b, (~a) & MASK32, 1)
    elif opcode is DataOpcode.ADD or opcode is DataOpcode.CMN:
        result, n, z, c, v = add(a, b, 0)
    elif opcode is DataOpcode.ADC:
        result, n, z, c, v = add(a, b, carry_bit)
    elif opcode is DataOpcode.SBC:
        result, n, z, c, v = add(a, (~b) & MASK32, carry_bit)
    elif opcode is DataOpcode.RSC:
        result, n, z, c, v = add(b, (~a) & MASK32, carry_bit)
    elif opcode is DataOpcode.ORR:
        result, n, z, c, v = logical(a | b)
    elif opcode is DataOpcode.MOV:
        result, n, z, c, v = logical(b)
    elif opcode is DataOpcode.BIC:
        result, n, z, c, v = logical(a & ~b & MASK32)
    elif opcode is DataOpcode.MVN:
        result, n, z, c, v = logical((~b) & MASK32)
    else:  # pragma: no cover - exhaustive over the enum
        raise ValueError("unknown data-processing opcode: %r" % (opcode,))

    writes_result = opcode.writes_rd
    return result, n, z, c, v, writes_result


def _oracle_condition_passes(condition, flags):
    cond = Condition(condition)
    n, z, c, v = flags.n, flags.z, flags.c, flags.v
    if cond is Condition.EQ:
        return z
    if cond is Condition.NE:
        return not z
    if cond is Condition.CS:
        return c
    if cond is Condition.CC:
        return not c
    if cond is Condition.MI:
        return n
    if cond is Condition.PL:
        return not n
    if cond is Condition.VS:
        return v
    if cond is Condition.VC:
        return not v
    if cond is Condition.HI:
        return c and not z
    if cond is Condition.LS:
        return (not c) or z
    if cond is Condition.GE:
        return n == v
    if cond is Condition.LT:
        return n != v
    if cond is Condition.GT:
        return (not z) and n == v
    if cond is Condition.LE:
        return z or n != v
    return True  # AL


# -- comparisons -----------------------------------------------------------------

EDGE_OPERANDS = (0, 1, 0x7FFFFFFF, 0x80000000, 0xFFFFFFFF)
WORDS = st.integers(min_value=0, max_value=MASK32)


def same(actual, expected):
    """Equal, element by element of the same type."""
    assert actual == expected
    assert [type(item) for item in actual] == [type(item) for item in expected]


@pytest.mark.parametrize("opcode", list(DataOpcode), ids=lambda op: op.name)
def test_alu_matches_oracle_on_edge_operands(opcode):
    for a, b, carry in itertools.product(EDGE_OPERANDS, EDGE_OPERANDS, (False, True)):
        same(alu_operate(opcode, a, b, carry), _oracle_alu_operate(opcode, a, b, carry))


def test_alu_accepts_plain_integer_opcodes_and_unmasked_operands():
    for opcode in range(16):
        for a, b in ((-1, 1 << 33), (0x1_0000_0005, -3)):
            same(alu_operate(opcode, a, b, 1), _oracle_alu_operate(opcode, a, b, 1))


@settings(max_examples=400, deadline=None)
@given(opcode=st.sampled_from(DataOpcode), a=WORDS, b=WORDS, carry=st.booleans())
def test_alu_matches_oracle_on_drawn_operands(opcode, a, b, carry):
    same(alu_operate(opcode, a, b, carry), _oracle_alu_operate(opcode, a, b, carry))


@pytest.mark.parametrize("shift_type", list(ShiftType), ids=lambda shift: shift.name)
def test_shifter_matches_oracle_on_every_amount(shift_type):
    for value, amount, carry in itertools.product(EDGE_OPERANDS + (0x12345678,), range(41), (False, True)):
        same(
            apply_shift(value, shift_type, amount, carry),
            _oracle_apply_shift(value, shift_type, amount, carry),
        )


@settings(max_examples=400, deadline=None)
@given(
    value=WORDS,
    shift_type=st.sampled_from(ShiftType),
    amount=st.integers(min_value=0, max_value=300),
    carry=st.booleans(),
)
def test_shifter_matches_oracle_on_drawn_operands(value, shift_type, amount, carry):
    same(
        apply_shift(value, shift_type, amount, carry),
        _oracle_apply_shift(value, shift_type, amount, carry),
    )


@pytest.mark.parametrize("cond", list(Condition), ids=lambda cond: cond.name)
def test_condition_table_matches_oracle_on_every_nibble(cond):
    assert len(Condition) == 15
    for nzcv in range(16):
        flags = ConditionFlags(n=bool(nzcv & 8), z=bool(nzcv & 4), c=bool(nzcv & 2), v=bool(nzcv & 1))
        expected = _oracle_condition_passes(cond, flags)
        assert condition_passes(cond, flags) is expected
        assert condition_passes_nzcv(cond, nzcv) is expected
        assert condition_passes_nzcv(int(cond), nzcv) is expected
        assert flags.nzcv == nzcv


@pytest.mark.parametrize("opcode", [16, -1, None, "ADD"])
def test_unknown_opcode_raises_value_error(opcode):
    with pytest.raises(ValueError):
        _oracle_alu_operate(opcode, 1, 2, False)
    with pytest.raises(ValueError, match="opcode"):
        alu_operate(opcode, 1, 2, False)


@pytest.mark.parametrize("shift_type", [4, -1, None])
def test_unknown_shift_type_raises_value_error(shift_type):
    with pytest.raises(ValueError):
        _oracle_apply_shift(5, shift_type, 3, False)
    with pytest.raises(ValueError, match="shift type"):
        apply_shift(5, shift_type, 3, False)
    # Amount 0 passes the value through before the type is looked at.
    same(apply_shift(5, shift_type, 0, True), _oracle_apply_shift(5, shift_type, 0, True))


@pytest.mark.parametrize("condition", [0xF, 16, -1, None])
def test_unknown_condition_raises_value_error(condition):
    flags = ConditionFlags()
    with pytest.raises(ValueError):
        _oracle_condition_passes(condition, flags)
    with pytest.raises(ValueError, match="condition"):
        condition_passes(condition, flags)
    with pytest.raises(ValueError, match="condition"):
        condition_passes_nzcv(condition, 0)
