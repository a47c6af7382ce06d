"""Shared ARM substrate every elaborated processor model builds on.

This module provides what every ARM7-family model needs:

* :class:`ProcessorCore` — the non-pipeline "fetch control" unit holding the
  fetch program counter and halt state;
* the CPSR as a one-entry register file holding the packed NZCV nibble, so
  that flag hazards go through the same RegRef protocol as data hazards;
  the per-class helpers keep flags as that nibble from register to
  register (:func:`unpack_flags` only serves :meth:`Processor.flags`);
* operand-readiness helpers combining ``can_read()`` with the forwarding
  interfaces ``can_read(state)`` / ``read(state)``;
* the six ARM operation classes (alu, mul, mem, memm, branch, system) and
  their symbol binders;
* the per-class compute helpers, which run the :mod:`repro.isa` datapath
  (ALU, shifter, condition table and the logical-op flag rule) the
  functional simulator runs too — there is one copy of each rule;
* the :class:`Processor` facade that wires a model, its decoder and the
  generated simulation engine together.
"""

from __future__ import annotations

from dataclasses import replace

from repro.core.decoder import InstructionDecoder
from repro.core.engine import EngineOptions
from repro.core.generator import generate_simulator
from repro.core.operands import Const, RegRef
from repro.core.operation_class import DecodeContext, OperationClass, SymbolKind
from repro.isa.alu import alu_operate, apply_shift, multiply, multiply_early_termination_cycles
from repro.isa.alu import written_carry_overflow
from repro.isa.conditions import Condition, condition_passes_nzcv
from repro.isa.conditions import condition_passes  # noqa: F401  (perfbench/layers.py rebinds it here)
from repro.isa.encoding import decode as isa_decode
from repro.isa.flags import ConditionFlags, pack_flags
from repro.isa.instructions import DataOpcode, DataProcessing, Multiply, ShiftType
from repro.isa.registers import LR, NUM_REGISTERS, PC
from repro.memory.cache import CacheConfig
from repro.memory.memory_system import MemorySystem, MemorySystemConfig


# ---------------------------------------------------------------------------
# Flags unpacking
# ---------------------------------------------------------------------------

def unpack_flags(value):
    """Unpack a flags nibble into a :class:`ConditionFlags` object."""
    value = int(value or 0)
    return ConditionFlags(n=bool(value & 8), z=bool(value & 4), c=bool(value & 2), v=bool(value & 1))


# ---------------------------------------------------------------------------
# Fetch-control unit
# ---------------------------------------------------------------------------

class ProcessorCore:
    """Non-pipeline unit owning the fetch PC, the halt state and the output.

    RCPN transitions reference it exactly like they reference the memory
    system or the branch predictor (paper Section 3: "A transition can
    directly reference non-pipeline units").  ``output`` collects the
    values the program prints (``swi #1`` writes ``r0``); :meth:`reset`,
    which :meth:`Processor.load_program` calls, empties it in place.
    """

    def __init__(self):
        self.fetch_pc = 0
        self.halted = False
        self.output = []

    def reset(self, entry=0):
        self.fetch_pc = entry
        self.halted = False
        self.output.clear()

    def redirect(self, target):
        """Redirect fetching (taken branch / misprediction recovery)."""
        self.fetch_pc = target & 0xFFFFFFFF

    def halt(self):
        self.halted = True


# ---------------------------------------------------------------------------
# Multi-issue arbitration
# ---------------------------------------------------------------------------

class IssueControl:
    """The multi-issue arbiter's state: program-order links and issue counts.

    A non-pipeline unit (paper Section 3) the elaborator attaches to every
    model whose :class:`~repro.describe.spec.IssueSpec` has ``width > 1``;
    the fetch hooks register each fetched token with :meth:`note_fetch`
    (``ISSUE_CONTROL``).  Both engines test each transition's gate
    (:func:`~repro.core.scheduler.issue_plan`) inline by these methods'
    rules: at most ``width`` issues per cycle and ``port_limits[port]``
    per port; an instruction issues only once its link ``token.prev`` (its
    nearest predecessor in fetch order not squashed at its fetch) is gone,
    squashed or issued; and no token leaves a front-end stage while an
    elder resides in it (:meth:`may_advance`).  A link is *gone* when it
    is ``None`` or names a token of a later (or this same) fetch: the
    generated engine renews a retired token for a later fetch of its word.
    An issue cuts the issued token's link, so a retired token pins
    nothing.  The engine zeroes the counts at each cycle's start
    (:meth:`new_cycle`, or loop locals in the emitted engine), never from
    the clock, so the idle fast-forward may skip a cycle in which a token
    waits at issue.
    """

    #: :meth:`repro.core.net.RCPN.reset` clears units carrying this flag,
    #: so a bare engine reset cannot leak stale issue-window state.
    clears_with_net = True

    def __init__(self, width, port_limits=None):
        self.width = width
        self.port_limits = dict(port_limits or {})
        self.reset()

    def reset(self):
        self._last = None
        self.new_cycle()

    def new_cycle(self):
        """Zero the cycle's issue counts."""
        self._issued = 0
        self._port_issued = dict.fromkeys(self.port_limits, 0)

    def note_fetch(self, token):
        """Link a freshly fetched instruction token to its predecessor."""
        prev = self._last
        while prev is not None and prev.squashed:
            prev = prev.prev
        token.prev = prev
        self._last = token

    def may_issue(self, token, ctx, port=None):
        """The issue gate: width, then port, then program order.

        ``ctx`` is not read: the engine zeroes the counts each cycle.
        """
        if self._issued >= self.width:
            return False
        if port is not None and self._port_issued[port] >= self.port_limits[port]:
            return False
        prev = token.prev
        return prev is None or "issued" in prev.annotations or prev.squashed or prev.seq >= token.seq

    def may_advance(self, token, source_stage):
        """Pre-issue transfer rule: no overtaking in the front end.

        A token may leave a front-end stage only while no *older*
        instruction still resides in that stage.  Anything weaker
        deadlocks the in-order issue gate: a younger instruction that
        overtakes a stalled elder (e.g. one waiting out an i-cache miss)
        can fill the downstream stages, none of which may issue before the
        stranded elder, which in turn cannot advance.  Within one cycle up
        to ``width`` instructions still cross a stage boundary: once the
        elder moves on, a younger co-resident evaluated later sees it gone.
        As every front-end stage keeps fetch order, the one elder to look
        for is the link: the stage holds none when it holds at most one
        token (``token`` itself) or the link is gone or resides elsewhere.
        """
        if source_stage._occupancy <= 1:
            return True
        prev = token.prev
        return prev is None or prev.seq >= token.seq or prev.place is None or prev.place.stage is not source_stage

    def note_issue(self, token, ctx, port=None):
        """Book ``token``'s issue: count it and cut its link."""
        self._issued += 1
        if port is not None:
            self._port_issued[port] += 1
        token.annotations["issued"] = True
        token.prev = None


# ---------------------------------------------------------------------------
# Operand readiness with forwarding
# ---------------------------------------------------------------------------

def operand_ready(operand, forward=()):
    """True when an operand can be obtained now.

    Either the architectural register is free of pending writers (or this
    operand is itself the writer), or the pending writer's instruction
    resides in one of the ``forward`` places *and* has already produced
    its value (the bypass network has something to forward).  ``forward``
    is a set of :class:`~repro.core.place.Place` objects — the elaborated
    form of ``spec.hazards.forward_states`` (see
    :attr:`~repro.describe.semantics.ArmSemantics.forward_states`) — so the
    whole check is one writer-slot read and one set lookup.  Constants
    (``register is None``) are always ready.
    """
    register = operand.register
    if register is None:
        return True
    writer = register.regfile.writers[register.index]
    if writer is None or writer is operand:
        return True
    token = writer.token
    return token is not None and token.place in forward and writer._has_value


def operand_read(operand, forward=()):
    """Latch an operand value, using the bypass path when necessary.

    ``forward`` is the place set :func:`operand_ready` takes.  Raises
    :class:`RuntimeError` when the operand is not ready.
    """
    register = operand.register
    if register is None:
        return operand._value
    writer = register.regfile.writers[register.index]
    if writer is None or writer is operand:
        value = operand._value = register.regfile.data[register.index]
        return value
    token = writer.token
    if token is not None and token.place in forward and writer._has_value:
        value = operand._value = writer._value
        return value
    raise RuntimeError(
        "operand %r was read although operand_ready() is false; "
        "guard the transition with operand_ready()" % (operand,)
    )


def operands_ready(operands, forward=()):
    """Readiness of a collection of operands (:func:`operand_ready` each)."""
    # A plain loop, not all() over a generator: this runs in nearly every
    # issue guard, and building the generator is per-call overhead.
    for operand in operands:  # noqa: SIM110
        if not operand_ready(operand, forward):
            return False
    return True


# ---------------------------------------------------------------------------
# ARM operation classes
# ---------------------------------------------------------------------------

class ArmDecodeContext(DecodeContext):
    """Decode context exposing the GPR and CPSR register objects."""

    def __init__(self, gpr_registers, cpsr_register, units=None):
        super().__init__(registers=gpr_registers, units=units)
        self.cpsr = cpsr_register

    def gpr(self, index):
        return self.registers[index]


def _reads_flags(instr):
    if instr.cond != Condition.AL:
        return True
    if isinstance(instr, DataProcessing):
        return instr.opcode in (DataOpcode.ADC, DataOpcode.SBC, DataOpcode.RSC)
    return False


def _writes_flags(instr):
    if isinstance(instr, DataProcessing):
        return instr.set_flags or not instr.opcode.writes_rd
    if isinstance(instr, Multiply):
        return instr.set_flags
    return False


def _bind_alu(instr, context):
    op2 = instr.operand2
    if op2.is_immediate:
        # imm8 ROR #(2*rotate), so the shared shifter yields a rotated
        # immediate's carry-out (its bit 31).
        s2 = Const(op2.immediate & 0xFF)
        shift_type, shift_amount = ShiftType.ROR, 2 * op2.rotate
    else:
        s2 = RegRef(context.gpr(op2.rm))
        shift_type, shift_amount = op2.shift_type, op2.shift_amount
    return {
        "op": instr.opcode,
        "d": RegRef(context.gpr(instr.rd)) if instr.opcode.writes_rd else Const(0),
        "s1": RegRef(context.gpr(instr.rn)) if instr.opcode.uses_rn else Const(0),
        "s2": s2,
        "shift_type": shift_type,
        "shift_amount": shift_amount,
        "set_flags": instr.set_flags or not instr.opcode.writes_rd,
        "cond": instr.cond,
        # Flag writers also read the previous flags so the shifter carry-in
        # and the preserved V bit of logical operations are modeled exactly.
        "reads_flags": _reads_flags(instr) or _writes_flags(instr),
        "writes_flags": _writes_flags(instr),
        "fl": RegRef(context.cpsr),
        "writes_pc": instr.opcode.writes_rd and instr.rd == PC,
    }


def _bind_mul(instr, context):
    return {
        "d": RegRef(context.gpr(instr.rd)),
        "s1": RegRef(context.gpr(instr.rm)),
        "s2": RegRef(context.gpr(instr.rs)),
        "acc": RegRef(context.gpr(instr.rn)) if instr.accumulate else Const(0),
        "accumulate": instr.accumulate,
        "set_flags": instr.set_flags,
        "cond": instr.cond,
        "reads_flags": _reads_flags(instr) or _writes_flags(instr),
        "writes_flags": _writes_flags(instr),
        "fl": RegRef(context.cpsr),
        "writes_pc": False,
    }


def _bind_mem(instr, context):
    if instr.has_register_offset:
        offset = RegRef(context.gpr(instr.offset_register))
        shift_type, shift_amount = instr.shift_type, instr.shift_amount
    else:
        offset = Const(instr.offset_immediate or 0)
        shift_type, shift_amount = None, 0
    return {
        "L": instr.load,
        "byte": instr.byte,
        "r": RegRef(context.gpr(instr.rd)),
        "base": RegRef(context.gpr(instr.rn)),
        "offset": offset,
        "shift_type": shift_type,
        "shift_amount": shift_amount,
        "pre_index": instr.pre_index,
        "up": instr.up,
        "updates_base": instr.writeback or not instr.pre_index,
        "cond": instr.cond,
        "reads_flags": _reads_flags(instr),
        "writes_flags": False,
        "fl": RegRef(context.cpsr),
        "writes_pc": instr.load and instr.rd == PC,
    }


def _bind_memm(instr, context):
    return {
        "L": instr.load,
        "base": RegRef(context.gpr(instr.rn)),
        "regs": [RegRef(context.gpr(r)) for r in sorted(instr.register_list)],
        "reg_indices": tuple(sorted(instr.register_list)),
        "updates_base": instr.writeback,
        "before": instr.before,
        "up": instr.up,
        "cond": instr.cond,
        "reads_flags": _reads_flags(instr),
        "writes_flags": False,
        "fl": RegRef(context.cpsr),
        "writes_pc": instr.load and PC in instr.register_list,
    }


def _bind_branch(instr, context):
    return {
        "offset": Const(instr.offset),
        "link": instr.link,
        "lr": RegRef(context.gpr(LR)) if instr.link else Const(0),
        "cond": instr.cond,
        "reads_flags": _reads_flags(instr),
        "writes_flags": False,
        "fl": RegRef(context.cpsr),
    }


def _bind_system(instr, context):
    return {
        "op": instr.op,
        "imm": instr.imm,
        "cond": instr.cond,
        "reads_flags": _reads_flags(instr),
        "writes_flags": False,
        "fl": RegRef(context.cpsr),
    }


def arm_operation_classes():
    """The six ARM operation classes used by the StrongARM and XScale models."""
    return [
        OperationClass(
            "alu",
            symbols={
                "op": SymbolKind.MICRO_OPERATION,
                "d": SymbolKind.REGISTER_OR_CONSTANT,
                "s1": SymbolKind.REGISTER_OR_CONSTANT,
                "s2": SymbolKind.REGISTER_OR_CONSTANT,
                "fl": SymbolKind.REGISTER,
            },
            binder=_bind_alu,
            description="data-processing instructions executed by the ALU",
        ),
        OperationClass(
            "mul",
            symbols={
                "d": SymbolKind.REGISTER,
                "s1": SymbolKind.REGISTER,
                "s2": SymbolKind.REGISTER,
                "acc": SymbolKind.REGISTER_OR_CONSTANT,
                "fl": SymbolKind.REGISTER,
            },
            binder=_bind_mul,
            description="multiply / multiply-accumulate instructions",
        ),
        OperationClass(
            "mem",
            symbols={
                "L": SymbolKind.VALUE,
                "r": SymbolKind.REGISTER,
                "base": SymbolKind.REGISTER,
                "offset": SymbolKind.REGISTER_OR_CONSTANT,
                "fl": SymbolKind.REGISTER,
            },
            binder=_bind_mem,
            description="single-word/byte loads and stores",
        ),
        OperationClass(
            "memm",
            symbols={
                "L": SymbolKind.VALUE,
                "base": SymbolKind.REGISTER,
                "regs": SymbolKind.REGISTER,
                "fl": SymbolKind.REGISTER,
            },
            binder=_bind_memm,
            description="block transfers (LDM/STM)",
        ),
        OperationClass(
            "branch",
            symbols={
                "offset": SymbolKind.CONSTANT,
                "lr": SymbolKind.REGISTER_OR_CONSTANT,
                "fl": SymbolKind.REGISTER,
            },
            binder=_bind_branch,
            description="PC-relative branches (B/BL)",
        ),
        OperationClass(
            "system",
            symbols={
                "op": SymbolKind.VALUE,
                "imm": SymbolKind.VALUE,
                "fl": SymbolKind.REGISTER,
            },
            binder=_bind_system,
            description="software interrupts, halt and no-op",
        ),
    ]


# ---------------------------------------------------------------------------
# Shared per-class behaviour helpers (used inside transition actions)
# ---------------------------------------------------------------------------

def condition_holds(token, forward=()):
    """Evaluate the token's condition code, reading flags if needed."""
    if not token.reads_flags:
        return True
    return condition_passes_nzcv(token.cond, operand_read(token.fl, forward))


def token_flags_ready(token, forward=()):
    if not token.reads_flags:
        return True
    return operand_ready(token.fl, forward)


# The compute helpers read operands' ``_value`` field, which RegRef and
# Const both have, instead of the ``value`` property: they run once per
# executed instruction.

def compute_alu(token):
    """Compute an ALU token's result and flags from its latched operands.

    Returns ``(result_or_None, flags_nibble_or_None)``.  Flag-setting ALU
    tokens always read the previous flags (the binder forces
    ``reads_flags``), so the carry-in and the preserved overflow bit are
    available here.  Flags stay a packed NZCV nibble throughout.
    """
    nzcv = token.fl._value if token.reads_flags else 0
    carry_in = nzcv & 2
    s2 = token.s2._value or 0
    shifter_carry = carry_in
    if token.shift_amount:
        s2, shifter_carry = apply_shift(s2, token.shift_type, token.shift_amount, carry_in)
    result, n, z, c, v, writes = alu_operate(token.op, token.s1._value or 0, s2, carry_in)
    flags = None
    if token.set_flags:
        c, v = written_carry_overflow(token.op, c, v, shifter_carry, nzcv & 1)
        flags = pack_flags(n, z, c, v)
    return (result if writes else None), flags


def compute_multiply(token):
    """Compute a multiply token's result; returns (result, flags_or_None, cycles)."""
    accumulator = token.acc._value if not isinstance(token.acc, Const) else 0
    s2 = token.s2._value or 0
    result = multiply(token.s1._value or 0, s2, accumulator or 0)
    cycles = multiply_early_termination_cycles(s2)
    flags = None
    if token.set_flags:
        # N and Z from the result; C and V kept from the previous nibble.
        previous = token.fl._value if token.reads_flags else 0
        flags = pack_flags(result > 0x7FFFFFFF, result == 0, previous & 2, previous & 1)
    return result, flags, cycles


def compute_memory_address(token, carry_in=False):
    """Effective address and updated base of a load/store token."""
    base = token.base._value or 0
    offset = token.offset._value or 0
    if token.shift_amount:
        offset, _ = apply_shift(offset, token.shift_type, token.shift_amount, carry_in)
    signed = offset if token.up else -offset
    updated = (base + signed) & 0xFFFFFFFF
    effective = updated if token.pre_index else base
    return effective, updated


def block_transfer_addresses(token):
    """Word addresses touched by a block transfer and the updated base."""
    count = len(token.reg_indices)
    base = token.base._value or 0
    if token.up:
        start = base + (4 if token.before else 0)
        new_base = base + 4 * count
    else:
        start = base - 4 * count + (0 if token.before else 4)
        new_base = base - 4 * count
    addresses = [(start + 4 * i) & 0xFFFFFFFF for i in range(count)]
    return addresses, new_base & 0xFFFFFFFF


# ---------------------------------------------------------------------------
# Processor facade
# ---------------------------------------------------------------------------

def resolve_engine_options(engine_options, backend=None):
    """Merge a builder's ``engine_options`` and ``backend`` arguments.

    Every model builder accepts both an :class:`EngineOptions` object and a
    ``backend`` shortcut string (``"interpreted"`` / ``"generated"``); the
    shortcut, when given, overrides the backend recorded in the options.
    The caller's options object is never mutated.
    """
    options = engine_options or EngineOptions()
    if backend is not None and backend != options.backend:
        options = replace(options, backend=backend)
    return options


class Processor:
    """A complete generated simulator: model + decoder + engine + memory.

    Model builders return instances of this class; users interact with it
    exactly like with the fixed baseline simulator (``load_program``,
    ``run``, ``register`` ...), which is what the cross-validation tests and
    the benchmark harness rely on.  The engine is produced by
    :func:`repro.core.generator.generate_simulator` and may be either
    backend; ``processor.backend`` reports which one.
    """

    def __init__(self, net, decoder, core, memory, engine_options=None):
        self.net = net
        self.decoder = decoder
        self.core = core
        self.memory = memory
        self.engine, self.generation_report = generate_simulator(
            net, options=engine_options or EngineOptions()
        )

    @property
    def backend(self):
        """Execution strategy of the engine ("interpreted"/"generated")."""
        return self.engine.backend

    @property
    def stats(self):
        return self.engine.stats

    @property
    def tracer(self):
        """The engine's :class:`repro.observe.trace.Tracer`, or ``None``.

        Present when the engine options carried an enabled ``trace``
        config (``EngineOptions(trace=TraceConfig(...))``).
        """
        return getattr(self.engine, "tracer", None)

    def load_program(self, program):
        self.memory.load_program(program)
        self.core.reset(entry=program.entry)

    def run(self, max_cycles=None, max_instructions=None):
        return self.engine.run(max_cycles=max_cycles, max_instructions=max_instructions)

    def reset(self):
        """Reset every piece of dynamic state for a bit-reproducible re-run.

        Engine state, cache contents/statistics and learned predictor/BTB
        state are cleared; the engine (including the generated backend's
        emitted cycle loop) is kept.  Call
        :meth:`load_program` afterwards to restore the program image and
        the fetch PC.  The memory system gets a *full* reset — cold tags,
        not just zeroed counters, and main memory emptied — so a reused
        processor never starts its second run with a warm cache or with
        the previous run's stores.  The decoder numbers instructions from
        0 again, so a traced re-run records the same events.
        """
        self.engine.reset()
        self.memory.reset()
        self.decoder.restart_sequence()
        for unit in self.net.units.values():
            if unit is self.memory or unit is self.core:
                continue  # handled above / by load_program
            reset = getattr(unit, "reset", None)
            if callable(reset):
                reset()

    def register(self, index):
        """Architectural value of general-purpose register ``index``."""
        return self.net.register_files["gpr"].data[index]

    def flags(self):
        return unpack_flags(self.net.register_files["cpsr"].data[0])

    def cache_statistics(self):
        return self.memory.statistics()

    def complexity(self):
        return self.net.complexity()


def build_memory_config(memory_spec):
    """Elaborate a declarative :class:`~repro.describe.spec.MemorySpec` into
    the runtime :class:`~repro.memory.memory_system.MemorySystemConfig`.

    Levels translate one-to-one; the spec's validation has already run by
    the time the elaborator calls this, so the ``CacheConfig`` constructors
    cannot reject anything the spec accepted.
    """

    def cache_config(level):
        return CacheConfig(
            name=level.name,
            size_bytes=level.size_bytes,
            line_bytes=level.line_bytes,
            associativity=level.associativity,
            hit_latency=level.hit_latency,
            miss_penalty=level.miss_penalty,
        )

    if memory_spec.l1_unified is not None:
        unified = cache_config(memory_spec.l1_unified)
        icache = dcache = unified
    else:
        icache = cache_config(memory_spec.l1_instruction)
        dcache = cache_config(memory_spec.l1_data)
    return MemorySystemConfig(
        icache=icache,
        dcache=dcache,
        memory_latency=memory_spec.memory_latency,
        l2=cache_config(memory_spec.l2) if memory_spec.l2 is not None else None,
        unified_l1=memory_spec.l1_unified is not None,
    )


def make_arm_model_parts(name, memory_config=None, operation_classes=None):
    """Common skeleton shared by the ARM-family models.

    Returns ``(net, context, core, memory)`` with the GPR/CPSR register
    files, the ARM operation classes, the memory system and the fetch
    control unit already registered.  ``operation_classes`` restricts the
    registered classes (the Figure 4/5 example model only implements a
    subset of the ISA).
    """
    from repro.core.net import RCPN

    net = RCPN(name)
    gpr_file = net.add_register_file("gpr", NUM_REGISTERS)
    cpsr_file = net.add_register_file("cpsr", 1)
    gpr_registers = gpr_file.registers()
    cpsr_register = cpsr_file.register(0, name="cpsr")

    memory = MemorySystem(memory_config)
    core = ProcessorCore()
    net.add_unit("memory", memory)
    net.add_unit("core", core)

    for opclass in arm_operation_classes():
        if operation_classes is None or opclass.name in operation_classes:
            net.add_operation_class(opclass)

    context = ArmDecodeContext(gpr_registers, cpsr_register, units=net.units)
    return net, context, core, memory


def make_decoder(net, context):
    """An :class:`InstructionDecoder` for the ARM ISA over ``net``."""
    return InstructionDecoder(net, isa_decode, context)
