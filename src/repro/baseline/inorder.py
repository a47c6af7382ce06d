"""A hand-written, tightly coded in-order five-stage cycle-accurate simulator.

This is *not* the SimpleScalar stand-in (see
:mod:`repro.baseline.simplescalar` for that); it is an additional, stronger
baseline: the kind of special-purpose, hand-optimised simulator one would
write for exactly one five-stage core.  It is used for cross-validation and
as the upper bound of what a fixed hand-written simulator can achieve, while
still paying two characteristic fixed-simulator costs:

* the instruction word is re-decoded at every stage that needs instruction
  fields (no decoded-instruction cache) — exactly the repeated work the
  paper's decode-once instruction tokens avoid,
* every pipeline latch is double-buffered (master/slave) and copied at each
  cycle boundary, the cost the RCPN engine avoids for non-feedback places.

Timing rules (shared with the RCPN StrongARM model, see
``repro/processors/strongarm.py``):

* ALU/multiply results are available for forwarding once the instruction
  has completed execute; load results once it has completed memory access;
* multiplies occupy execute for 1-4 cycles (early termination);
* branches are predicted not-taken and resolved at issue/execute; taken
  branches squash the younger instructions in the fetch and decode latches;
* instruction and data caches add their miss latencies to fetch and memory.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.isa.alu import multiply_early_termination_cycles
from repro.isa.encoding import decode
from repro.isa.instructions import (
    DataProcessing,
    DataOpcode,
    LoadStoreMultiple,
    Multiply,
)
from repro.isa.registers import PC
from repro.isa.semantics import CPUState, execute
from repro.memory.memory_system import MemorySystem, MemorySystemConfig
from repro.core.statistics import SimulationStatistics


@dataclass
class InOrderConfig:
    """Configuration of the fixed baseline simulator."""

    memory: MemorySystemConfig = field(default_factory=MemorySystemConfig)
    max_cycles: int = 10_000_000


class _Latch(dict):
    """A pipeline latch: a dictionary with attribute-style access.

    Latches deliberately store the *raw instruction word*; downstream stages
    re-decode it, as fixed simulators that keep their pipeline registers
    close to the hardware encoding do.
    """

    __getattr__ = dict.__getitem__

    def copy(self):
        return _Latch(self)


class InOrderPipelineSimulator:
    """Hand-written cycle-accurate simulator of a five-stage StrongARM core."""

    #: Operation classes whose results only become available after the
    #: memory stage (loads and block loads).
    _MEMORY_CLASSES = ("mem", "memm")

    def __init__(self, config=None):
        self.config = config or InOrderConfig()
        self.memory = MemorySystem(self.config.memory)
        self.state = CPUState()
        self.stats = SimulationStatistics()
        self.reset()

    def reset(self):
        self.state = CPUState()
        self.stats = SimulationStatistics()
        self.fetch_pc = 0
        self.fetch_enabled = True
        self.halt_seen = False
        self.cycle = 0
        # Master latches (read side) and slave latches (write side); the
        # slave is copied into the master at every cycle boundary.
        self.latches = {"fd": None, "de": None, "em": None, "mw": None}
        self.next_latches = dict(self.latches)
        self.icache_busy = 0
        self.pending_fetch = None
        # Scoreboard: register index -> {"available": bool, "kind": opclass}
        self.scoreboard = {}
        self.flags_pending = None

    # -- program loading -----------------------------------------------------
    def load_program(self, program):
        self.memory.load_program(program)
        self.state.pc = program.entry
        self.fetch_pc = program.entry

    # -- hazard checks ---------------------------------------------------------
    def _sources_ready(self, instr):
        for reg in instr.source_registers():
            if reg == PC:
                continue
            entry = self.scoreboard.get(reg)
            if entry is not None and not entry["available"]:
                return False
        if (
            self._reads_flags(instr)
            and self.flags_pending is not None
            and not self.flags_pending["available"]
        ):
            return False
        return True

    def _destinations_free(self, instr):
        for reg in instr.destination_registers():
            if reg == PC:
                continue
            if reg in self.scoreboard:
                return False
        if self._writes_flags(instr) and self.flags_pending is not None:
            return False
        return True

    @staticmethod
    def _reads_flags(instr):
        from repro.isa.conditions import Condition

        if instr.cond != Condition.AL:
            return True
        if isinstance(instr, DataProcessing):
            return instr.opcode in (DataOpcode.ADC, DataOpcode.SBC, DataOpcode.RSC)
        return False

    @staticmethod
    def _writes_flags(instr):
        if isinstance(instr, DataProcessing):
            return instr.set_flags or not instr.opcode.writes_rd
        if isinstance(instr, Multiply):
            return instr.set_flags
        return False

    def _reserve_destinations(self, instr):
        for reg in instr.destination_registers():
            if reg == PC:
                continue
            self.scoreboard[reg] = {"available": False, "kind": instr.operation_class}
        if self._writes_flags(instr):
            self.flags_pending = {"available": False}

    def _mark_available(self, instr):
        for reg in instr.destination_registers():
            entry = self.scoreboard.get(reg)
            if entry is not None:
                entry["available"] = True
        if self._writes_flags(instr) and self.flags_pending is not None:
            self.flags_pending["available"] = True

    def _clear_destinations(self, instr):
        for reg in instr.destination_registers():
            self.scoreboard.pop(reg, None)
        if self._writes_flags(instr):
            self.flags_pending = None

    # -- per-stage behaviour -------------------------------------------------
    def _stage_writeback(self):
        latch = self.latches["mw"]
        if latch is None:
            return
        if latch["mem_remaining"] > 0:
            latch = latch.copy()
            latch["mem_remaining"] -= 1
            self.next_latches["mw"] = latch
            return
        instr = decode(latch["word"])  # fixed-simulator overhead: decode again
        self._mark_available(instr)
        self._clear_destinations(instr)
        self.stats.instructions += 1
        self.stats.retired_by_class[instr.operation_class] += 1
        if latch["is_halt"]:
            self.halt_seen = True
        self.next_latches["mw"] = None

    def _stage_memory(self):
        latch = self.latches["em"]
        if latch is None:
            return
        if latch["ex_remaining"] > 0:
            latch = latch.copy()
            latch["ex_remaining"] -= 1
            self.next_latches["em"] = latch
            return
        if self.next_latches["mw"] is not None:
            # Structural stall: the memory stage is still busy.
            self.next_latches["em"] = latch
            self.stats.stalls += 1
            return
        instr = decode(latch["word"])  # decoded yet again at this stage
        mem_remaining = 0
        if instr.is_memory_access():
            addresses = latch["mem_addresses"]
            is_write = bool(latch["mem_is_write"])
            latency = 0
            for address in addresses or (0,):
                latency += self.memory.data_delay(address, is_write=is_write)
            mem_remaining = max(0, latency - 1)
        else:
            # Non-memory results become visible to dependents after execute.
            self._mark_available(instr)
        latch = latch.copy()
        latch["mem_remaining"] = mem_remaining
        self.next_latches["mw"] = latch
        self.next_latches["em"] = None

    def _stage_execute(self):
        latch = self.latches["de"]
        if latch is None:
            return
        if self.next_latches["em"] is not None:
            self.next_latches["de"] = latch
            self.stats.stalls += 1
            return
        word, pc = latch["word"], latch["pc"]
        instr = decode(word)  # the issue stage decodes the latch contents
        if not self._sources_ready(instr) or not self._destinations_free(instr):
            self.next_latches["de"] = latch
            self.stats.stalls += 1
            return

        self._reserve_destinations(instr)
        result = execute(instr, self.state, self.memory, address=pc)

        ex_remaining = 0
        if isinstance(instr, Multiply):
            ex_remaining = multiply_early_termination_cycles(self.state.regs[instr.rs])
        if isinstance(instr, LoadStoreMultiple):
            ex_remaining = max(0, len(instr.register_list) - 1)

        execute_latch = _Latch(
            word=word,
            pc=pc,
            ex_remaining=ex_remaining,
            mem_remaining=0,
            mem_addresses=tuple(result.memory_reads) + tuple(result.memory_writes),
            mem_is_write=bool(result.memory_writes),
            is_halt=bool(result.halted),
        )
        self.next_latches["em"] = execute_latch
        self.next_latches["de"] = None

        if result.halted:
            self.fetch_enabled = False

        if result.branch_taken:
            # Not-taken prediction: squash the younger instruction sitting in
            # the fetch latch (handled by the decode stage seeing the
            # redirect flag), cancel any fetch in flight and restart fetching
            # from the branch target.
            self.pending_fetch = None
            self.icache_busy = 0
            self.fetch_pc = result.next_pc
            self._branch_redirect = True
        else:
            self._branch_redirect = False

    def _stage_decode(self):
        latch = self.latches["fd"]
        if latch is None:
            return
        if getattr(self, "_branch_redirect", False):
            # Squashed by a taken branch resolved this cycle.
            self.stats.squashed += 1
            self.next_latches["fd"] = None
            return
        if self.next_latches["de"] is not None:
            self.next_latches["fd"] = latch
            self.stats.stalls += 1
            return
        self.next_latches["de"] = latch
        self.next_latches["fd"] = None

    def _stage_fetch(self):
        if not self.fetch_enabled:
            return
        if self.icache_busy > 0:
            self.icache_busy -= 1
            if self.icache_busy > 0:
                return
        if self.pending_fetch is not None:
            # A previously started (multi-cycle) fetch completed: deliver it
            # as soon as the fetch latch is free.
            if self.next_latches["fd"] is None:
                self.next_latches["fd"] = self.pending_fetch
                self.pending_fetch = None
            return
        if self.next_latches["fd"] is not None or self._branch_redirect:
            return
        pc = self.fetch_pc
        word = self.memory.read_word(pc)
        latency = self.memory.instruction_delay(pc)
        latch = _Latch(word=word, pc=pc)
        self.fetch_pc = (pc + 4) & 0xFFFFFFFF
        if latency <= 1:
            self.next_latches["fd"] = latch
        else:
            self.icache_busy = latency - 1
            self.pending_fetch = latch

    # -- main loop -----------------------------------------------------------
    def step(self):
        self._branch_redirect = False
        self.next_latches = dict(self.latches)
        self._stage_writeback()
        self._stage_memory()
        self._stage_execute()
        self._stage_decode()
        self._stage_fetch()
        # Master/slave commit: copy every slave latch into its master.
        self.latches = dict(self.next_latches)
        self.cycle += 1
        self.stats.cycles = self.cycle

    def pipeline_empty(self):
        return all(latch is None for latch in self.latches.values()) and self.pending_fetch is None

    def run(self, max_cycles=None):
        limit = max_cycles if max_cycles is not None else self.config.max_cycles
        start = time.perf_counter()
        while self.cycle < limit:
            if self.halt_seen and self.pipeline_empty():
                self.stats.finished = True
                self.stats.finish_reason = "halt"
                break
            self.step()
        else:
            self.stats.finish_reason = "max_cycles"
        self.stats.wall_time_seconds += time.perf_counter() - start
        return self.stats

    # -- reporting -----------------------------------------------------------
    def register(self, index):
        return self.state.regs[index]

    def cache_statistics(self):
        return self.memory.statistics()
