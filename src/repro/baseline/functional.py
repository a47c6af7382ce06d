"""Functional (instruction-set) simulator.

Executes instructions one at a time with no timing model.  The paper uses
instruction-set simulation as the "easy" end of the spectrum; here it serves
two purposes: it is the architectural-state reference the cycle-accurate
simulators are validated against, and it provides the instruction counts
used to compute CPI.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.isa.encoding import decode
from repro.isa.semantics import CPUState, execute
from repro.memory.main_memory import MainMemory


@dataclass
class FunctionalStatistics:
    """Counters of a functional simulation run."""

    instructions: int = 0
    executed_by_class: Counter = field(default_factory=Counter)
    branches: int = 0
    taken_branches: int = 0
    memory_reads: int = 0
    memory_writes: int = 0
    condition_failures: int = 0
    syscalls: int = 0
    halted: bool = False


class FunctionalSimulator:
    """A straightforward fetch-decode-execute interpreter.

    The decode cache (keyed on the instruction word) mirrors what any
    production ISS does and keeps long kernel runs fast enough for tests.
    """

    def __init__(self, memory=None):
        self.memory = memory if memory is not None else MainMemory()
        self.state = CPUState()
        self.stats = FunctionalStatistics()
        self._decode_cache = {}
        self.output = []

    def load_program(self, program):
        self.memory.load_program(program)
        self.state.pc = program.entry

    def _decode(self, word):
        instr = self._decode_cache.get(word)
        if instr is None:
            instr = decode(word)
            self._decode_cache[word] = instr
        return instr

    def _handle_syscall(self, number):
        """Tiny syscall layer: the benchmark kernels only need output hooks.

        ``swi #1`` records the value of ``r0`` (an integer "write"),
        ``swi #2`` records ``r0`` as a character code.  Anything else is
        counted but ignored, which matches the paper's note that the chosen
        benchmarks use "very few simple system calls (mainly for IO)".
        """
        self.stats.syscalls += 1
        if number == 1:
            self.output.append(self.state.regs[0])
        elif number == 2:
            self.output.append(chr(self.state.regs[0] & 0xFF))

    def step(self):
        """Execute a single instruction; returns the ExecutionResult."""
        address = self.state.pc
        word = self.memory.read_word(address)
        instr = self._decode(word)
        result = execute(instr, self.state, self.memory, address=address)

        self.stats.instructions += 1
        self.stats.executed_by_class[instr.operation_class] += 1
        if not result.executed:
            self.stats.condition_failures += 1
        if instr.is_branch() or result.branch_taken:
            self.stats.branches += 1
            if result.branch_taken:
                self.stats.taken_branches += 1
        self.stats.memory_reads += len(result.memory_reads)
        self.stats.memory_writes += len(result.memory_writes)
        if result.syscall is not None:
            self._handle_syscall(result.syscall)
        if result.halted:
            self.stats.halted = True
        return result

    def run(self, max_instructions=10_000_000):
        """Run until a HALT instruction or the instruction limit."""
        while not self.state.halted and self.stats.instructions < max_instructions:
            self.step()
        return self.stats

    def register(self, index):
        return self.state.regs[index]
