"""The two users of the shared datapath agree.

The functional simulator executes a data-processing or multiply
instruction on a :class:`CPUState` whose flags are a ``ConditionFlags``;
the RCPN substrate computes the same instruction on a decoded, bound token
whose flags are the packed NZCV nibble of the CPSR register file.  For
random instructions (every opcode and condition, immediates with and
without rotation, shifted registers, S on and off), random register
values and random flags, both must produce the same result and the same
NZCV.
"""

from hypothesis import given, settings, strategies as st

from repro.describe.substrate import (
    compute_alu,
    compute_multiply,
    condition_holds,
    make_arm_model_parts,
    make_decoder,
    operand_read,
    unpack_flags,
)
from repro.isa.conditions import Condition, condition_passes
from repro.isa.encoding import decode, encode
from repro.isa.flags import MASK32
from repro.isa.instructions import DataOpcode, DataProcessing, Multiply, Operand2, ShiftType
from repro.isa.semantics import CPUState, _execute_data_processing, _execute_multiply

NET, CONTEXT, _core, _memory = make_arm_model_parts("datapath-agreement")
DECODER = make_decoder(NET, CONTEXT)

WORDS = st.one_of(
    st.sampled_from((0, 1, 0x7FFFFFFF, 0x80000000, 0xFFFFFFFF)),
    st.integers(min_value=0, max_value=MASK32),
)
# r15 reads as the fetch address + 8 on the functional side; keep it out.
REGISTERS = st.integers(min_value=0, max_value=14)
REGISTER_VALUES = st.lists(WORDS, min_size=15, max_size=15)
NIBBLES = st.integers(min_value=0, max_value=15)

OPERAND2 = st.one_of(
    st.builds(Operand2.from_immediate, st.integers(0, 255), st.just(0)),
    st.builds(Operand2.from_immediate, st.integers(0, 255), st.integers(1, 15)),
    st.builds(Operand2.from_register, REGISTERS, st.sampled_from(ShiftType), st.integers(0, 31)),
)
DATA_PROCESSING = st.builds(
    DataProcessing,
    cond=st.sampled_from(Condition),
    opcode=st.sampled_from(DataOpcode),
    rd=REGISTERS,
    rn=REGISTERS,
    operand2=OPERAND2,
    set_flags=st.booleans(),
)
MULTIPLY = st.builds(
    Multiply,
    cond=st.sampled_from(Condition),
    rd=REGISTERS,
    rm=REGISTERS,
    rs=REGISTERS,
    rn=REGISTERS,
    accumulate=st.booleans(),
    set_flags=st.booleans(),
)


def both_sides(instr, registers, nzcv, sources):
    """``(instr, state, token)``: the decoded instruction on both datapaths.

    The token's ``sources`` and flags are latched the way the issue
    transition latches them; the condition checks must agree.
    """
    word = encode(instr)
    instr = decode(word)
    NET.register_files["gpr"].data[:15] = registers
    NET.register_files["cpsr"].data[0] = nzcv
    token = DECODER.decode_word(word)
    state = CPUState(regs=list(registers) + [0], flags=unpack_flags(nzcv))
    assert condition_holds(token) is condition_passes(instr.cond, state.flags)
    for symbol in sources:
        operand_read(getattr(token, symbol))
    return instr, state, token


@settings(max_examples=600, deadline=None)
@given(instr=DATA_PROCESSING, registers=REGISTER_VALUES, nzcv=NIBBLES)
def test_compute_alu_agrees_with_functional_execution(instr, registers, nzcv):
    instr, state, token = both_sides(instr, registers, nzcv, ("s1", "s2"))
    result, flags = compute_alu(token)
    expected, _ = _execute_data_processing(instr, state)
    if instr.opcode.writes_rd:
        assert result == expected == state.regs[instr.rd]
    else:
        assert result is None
    assert (nzcv if flags is None else flags) == state.flags.nzcv


@settings(max_examples=300, deadline=None)
@given(instr=MULTIPLY, registers=REGISTER_VALUES, nzcv=NIBBLES)
def test_compute_multiply_agrees_with_functional_execution(instr, registers, nzcv):
    instr, state, token = both_sides(instr, registers, nzcv, ("s1", "s2", "acc"))
    result, flags, _cycles = compute_multiply(token)
    assert result == _execute_multiply(instr, state) == state.regs[instr.rd]
    assert (nzcv if flags is None else flags) == state.flags.nzcv
