"""Functional (instruction-level) execution semantics.

These semantics are the single source of truth for what each instruction
*does*; the functional instruction-set simulator executes them directly and
the cycle-accurate models reuse the same ALU helpers so that both agree on
architectural state.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.isa.alu import alu_operate, apply_shift, multiply, written_carry_overflow
from repro.isa.conditions import condition_passes
from repro.isa.flags import MASK32, ConditionFlags, to_unsigned
from repro.isa.instructions import (
    Branch,
    DataProcessing,
    LoadStore,
    LoadStoreMultiple,
    Multiply,
    ShiftType,
    System,
    SystemOp,
)
from repro.isa.registers import LR, NUM_REGISTERS, PC


@dataclass
class CPUState:
    """Architectural state: sixteen registers plus the condition flags."""

    regs: list = field(default_factory=lambda: [0] * NUM_REGISTERS)
    flags: ConditionFlags = field(default_factory=ConditionFlags)
    halted: bool = False

    def copy(self):
        return CPUState(regs=list(self.regs), flags=self.flags.copy(), halted=self.halted)

    def read(self, index):
        return self.regs[index] & MASK32

    def write(self, index, value):
        self.regs[index] = value & MASK32

    @property
    def pc(self):
        return self.regs[PC] & MASK32

    @pc.setter
    def pc(self, value):
        self.regs[PC] = value & MASK32


@dataclass
class ExecutionResult:
    """Side information produced by executing one instruction.

    The cycle-accurate simulators use this to account for branches and memory
    traffic without re-deriving them from the instruction fields.
    """

    next_pc: int = 0
    executed: bool = True
    branch_taken: bool = False
    memory_reads: tuple = ()
    memory_writes: tuple = ()
    syscall: int = None
    halted: bool = False


def _operand2_value(instr, state):
    """Value and shifter carry of a data-processing second operand."""
    op2 = instr.operand2
    if op2.is_immediate:
        # imm8 ROR #(2*rotate): the shifter yields bit 31 as a rotated
        # immediate's carry-out and the old C for an unrotated one.
        return apply_shift(op2.immediate & 0xFF, ShiftType.ROR, 2 * op2.rotate, state.flags.c)
    base = state.read(op2.rm)
    return apply_shift(base, op2.shift_type, op2.shift_amount, state.flags.c)


def _execute_data_processing(instr, state):
    flags = state.flags
    operand2, shifter_carry = _operand2_value(instr, state)
    operand1 = state.read(instr.rn) if instr.opcode.uses_rn else 0
    result, n, z, c, v, writes = alu_operate(instr.opcode, operand1, operand2, flags.c)
    if instr.set_flags or not writes:
        flags.n = n
        flags.z = z
        flags.c, flags.v = written_carry_overflow(instr.opcode, c, v, shifter_carry, flags.v)
    branch_taken = False
    if writes:
        state.write(instr.rd, result)
        if instr.rd == PC:
            branch_taken = True
    return result, branch_taken


def _execute_multiply(instr, state):
    accumulator = state.read(instr.rn) if instr.accumulate else 0
    result = multiply(state.read(instr.rm), state.read(instr.rs), accumulator)
    state.write(instr.rd, result)
    if instr.set_flags:
        state.flags.set_nz(result)
    return result


def _load_store_address(instr, state):
    if instr.has_register_offset:
        offset, _ = apply_shift(
            state.read(instr.offset_register),
            instr.shift_type,
            instr.shift_amount,
            state.flags.c,
        )
    else:
        offset = instr.offset_immediate or 0
    base = state.read(instr.rn)
    signed_offset = offset if instr.up else -offset
    address = to_unsigned(base + signed_offset)
    effective = address if instr.pre_index else base
    return effective, address


def _execute_load_store(instr, state, memory):
    effective, updated_base = _load_store_address(instr, state)
    reads, writes = (), ()
    if instr.load:
        value = memory.read_byte(effective) if instr.byte else memory.read_word(effective)
        state.write(instr.rd, value)
        reads = (effective,)
    else:
        value = state.read(instr.rd)
        if instr.byte:
            memory.write_byte(effective, value & 0xFF)
        else:
            memory.write_word(effective, value)
        writes = (effective,)
    if instr.writeback or not instr.pre_index:
        state.write(instr.rn, updated_base)
    branch_taken = instr.load and instr.rd == PC
    return reads, writes, branch_taken


def _execute_load_store_multiple(instr, state, memory):
    count = len(instr.register_list)
    base = state.read(instr.rn)
    if instr.up:
        start = base + (4 if instr.before else 0)
        new_base = base + 4 * count
    else:
        start = base - 4 * count + (0 if instr.before else 4)
        new_base = base - 4 * count
    reads, writes = [], []
    address = start
    for reg in sorted(instr.register_list):
        if instr.load:
            state.write(reg, memory.read_word(address))
            reads.append(address)
        else:
            memory.write_word(address, state.read(reg))
            writes.append(address)
        address += 4
    if instr.writeback:
        state.write(instr.rn, new_base)
    branch_taken = instr.load and PC in instr.register_list
    return tuple(reads), tuple(writes), branch_taken


def execute(instr, state, memory, address=None):
    """Execute one instruction against ``state`` and ``memory``.

    ``address`` is the address the instruction was fetched from; it defaults
    to ``state.pc``.  Returns an :class:`ExecutionResult`; ``state.pc`` is
    updated to the address of the next instruction.
    """
    if address is None:
        address = state.pc
    result = ExecutionResult(next_pc=to_unsigned(address + 4))
    # During execution the PC reads as the fetch address + 8 (ARM convention).
    state.regs[PC] = to_unsigned(address + 8)

    if not condition_passes(instr.cond, state.flags):
        result.executed = False
        state.pc = result.next_pc
        return result

    branch_taken = False
    if isinstance(instr, DataProcessing):
        _, branch_taken = _execute_data_processing(instr, state)
        if branch_taken:
            result.next_pc = state.pc
    elif isinstance(instr, Multiply):
        _execute_multiply(instr, state)
    elif isinstance(instr, LoadStore):
        reads, writes, branch_taken = _execute_load_store(instr, state, memory)
        result.memory_reads, result.memory_writes = reads, writes
        if branch_taken:
            result.next_pc = state.pc
    elif isinstance(instr, LoadStoreMultiple):
        reads, writes, branch_taken = _execute_load_store_multiple(instr, state, memory)
        result.memory_reads, result.memory_writes = reads, writes
        if branch_taken:
            result.next_pc = state.pc
    elif isinstance(instr, Branch):
        if instr.link:
            state.write(LR, address + 4)
        result.next_pc = instr.target(address)
        branch_taken = True
    elif isinstance(instr, System):
        if instr.op is SystemOp.HALT:
            state.halted = True
            result.halted = True
        elif instr.op is SystemOp.SWI:
            result.syscall = instr.imm
    else:
        raise TypeError("cannot execute object of type %s" % type(instr).__name__)

    result.branch_taken = branch_taken
    state.pc = result.next_pc
    return result
