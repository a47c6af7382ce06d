"""Two-pass assembler for the ARM7-inspired ISA.

The assembler accepts a practical subset of the ARM assembly syntax:

* labels (``loop:``) and label references in branches and ``.word``,
* directives: ``.org``, ``.word``, ``.space``, ``.align``, ``.equ``,
* data processing: ``add r0, r1, r2`` / ``adds r0, r1, #5`` /
  ``add r0, r1, r2, lsl #2`` / ``mov r0, #1`` / ``cmp r0, r1``,
* multiply: ``mul r0, r1, r2`` and ``mla r0, r1, r2, r3``,
* loads/stores: ``ldr r0, [r1, #4]``, ``str r0, [r1, r2, lsl #2]``,
  post-indexed ``ldr r0, [r1], #4`` and writeback ``ldr r0, [r1, #4]!``,
* block transfers: ``ldmia r0!, {r1, r2-r5}`` / ``stmdb sp!, {r4-r11, lr}``,
* branches: ``b label``, ``bl label`` with condition suffixes,
* system: ``swi #n``, ``halt``, ``nop``,
* condition suffixes on every mnemonic (``addeq``, ``bne`` ..., and the
  explicit always ``al``: ``bal`` is ``b``).
"""

from __future__ import annotations

import contextlib
import re
from dataclasses import dataclass, field

from repro.isa.conditions import Condition
from repro.isa.encoding import encode
from repro.isa.instructions import (
    Branch,
    DataOpcode,
    DataProcessing,
    LoadStore,
    LoadStoreMultiple,
    Multiply,
    Operand2,
    ShiftType,
    System,
    SystemOp,
)
from repro.isa.program import Program
from repro.isa.registers import register_number


class AssemblerError(ValueError):
    """Raised on a syntax or encoding error, annotated with the line number."""

    def __init__(self, message, line_number=None, line=None):
        location = "" if line_number is None else " (line %d: %r)" % (line_number, line)
        super().__init__(message + location)
        self.line_number = line_number
        self.line = line


_DATA_OPCODES = {op.name.lower(): op for op in DataOpcode}
_SHIFT_NAMES = {s.name.lower(): s for s in ShiftType}
_LSM_MODES = {"ia": (False, True), "ib": (True, True), "da": (False, False), "db": (True, False)}
# Stack aliases: full/empty descending/ascending for LDM/STM.
_STACK_ALIASES_LDM = {"fd": "ia", "ed": "ib", "fa": "da", "ea": "db"}
_STACK_ALIASES_STM = {"fd": "db", "ed": "da", "fa": "ib", "ea": "ia"}


def encode_rotated_immediate(value):
    """Find an (imm8, rotate) pair encoding ``value``.

    Returns ``None`` when the value cannot be expressed as an 8-bit constant
    rotated right by an even amount.
    """
    value &= 0xFFFFFFFF
    for rotate in range(16):
        amount = rotate * 2
        rotated = ((value << amount) | (value >> (32 - amount))) & 0xFFFFFFFF if amount else value
        if rotated <= 0xFF:
            return rotated, rotate
    return None


@dataclass
class _Statement:
    """One assembled item: an instruction or literal data word(s)."""

    address: int
    line_number: int
    text: str
    kind: str  # "instruction" | "word" | "space"
    payload: object = None
    size: int = 4


@dataclass
class _ParserState:
    origin: int = 0
    location: int = 0
    symbols: dict = field(default_factory=dict)
    statements: list = field(default_factory=list)
    entry: int = None


def _strip_comment(line):
    for marker in (";", "//", "@"):
        index = line.find(marker)
        if index >= 0:
            line = line[:index]
    return line.strip()


def _parse_integer(token, symbols, line_number, line):
    token = token.strip()
    if token.startswith("#"):
        token = token[1:].strip()
    sign = 1
    if token.startswith("-"):
        sign = -1
        token = token[1:].strip()
    with contextlib.suppress(ValueError):
        if token.lower().startswith("0x"):
            return sign * int(token, 16)
        return sign * int(token, 10)
    if token in symbols:
        return sign * symbols[token]
    raise AssemblerError("cannot parse integer or symbol %r" % token, line_number, line)


def _mnemonic_forms():
    """Each base spelling mapped to ``(base, {flag or mode suffix: flags})``."""
    forms = {}
    for base, aliases in (("ldm", _STACK_ALIASES_LDM), ("stm", _STACK_ALIASES_STM)):
        modes = {mode: {"mode": mode} for mode in _LSM_MODES}
        modes.update((alias, {"mode": mode}) for alias, mode in aliases.items())
        forms[base] = (base, modes)
    for base in ("ldr", "str"):
        forms[base] = (base, {"": {"byte": False}, "b": {"byte": True}})
    for base in ("mla", "mul"):
        forms[base] = (base, {"": {"set_flags": False}, "s": {"set_flags": True}})
    for base in ("swi", "halt", "nop"):
        forms[base] = (base, {"": {}})
    for name, opcode in _DATA_OPCODES.items():
        plain = {"opcode": opcode, "set_flags": not opcode.writes_rd}
        forms[name] = ("dp", {"": plain, "s": {"opcode": opcode, "set_flags": True}})
    forms["b"] = ("b", {"": {"link": False}})
    forms["bl"] = ("b", {"": {"link": True}})
    return forms


_MNEMONIC_FORMS = _mnemonic_forms()
#: Condition suffixes, the explicit always ``al`` included.
_CONDITIONS = {c.name.lower(): c for c in Condition}
_UNKNOWN_MNEMONIC = (None, None, None)


def _split_mnemonic(mnemonic):
    """Split a full mnemonic into (base, condition, flags-dict); all None if unknown.

    A mnemonic is a base spelling, an optional condition suffix and the
    base's flag or addressing-mode suffix, in that order: ``addeqs``,
    ``ldrneb``, ``ldmeqfd``, ``bleq``.  No string has two such readings
    (``bls`` is B with LS, ``bleq`` BL with EQ), so the first spelling
    length that reads the whole mnemonic gives its one reading.
    """
    mnemonic = mnemonic.lower()
    for length in (1, 2, 3, 4):
        form = _MNEMONIC_FORMS.get(mnemonic[:length])
        if form is None:
            continue
        base, suffixes = form
        rest = mnemonic[length:]
        flags = suffixes.get(rest)
        if flags is not None:
            return base, Condition.AL, flags
        cond = _CONDITIONS.get(rest[:2])
        flags = suffixes.get(rest[2:])
        if cond is not None and flags is not None:
            return base, cond, flags
    return _UNKNOWN_MNEMONIC


def _parse_register(token, line_number, line):
    try:
        return register_number(token)
    except ValueError:
        raise AssemblerError(
            "expected a register, got %r" % token, line_number, line
        ) from None


def _split_operands(text):
    """Split an operand string on commas that are not inside brackets/braces."""
    parts, depth, current = [], 0, ""
    for char in text:
        if char in "[{":
            depth += 1
        elif char in "]}":
            depth -= 1
        if char == "," and depth == 0:
            parts.append(current.strip())
            current = ""
        else:
            current += char
    if current.strip():
        parts.append(current.strip())
    return parts


def _parse_shift(parts, start, symbols, line_number, line):
    """Parse an optional ``lsl #n`` trailing shift specification."""
    if start >= len(parts):
        return ShiftType.LSL, 0
    tokens = parts[start].split()
    if len(tokens) != 2 or tokens[0].lower() not in _SHIFT_NAMES:
        raise AssemblerError("cannot parse shift %r" % parts[start], line_number, line)
    amount = _parse_integer(tokens[1], symbols, line_number, line)
    if not 0 <= amount <= 31:
        raise AssemblerError("shift amount out of range: %d" % amount, line_number, line)
    return _SHIFT_NAMES[tokens[0].lower()], amount


def _parse_operand2(parts, start, symbols, line_number, line):
    token = parts[start]
    if token.startswith("#") or token[0].isdigit() or token.startswith("-"):
        value = _parse_integer(token, symbols, line_number, line)
        encoded = encode_rotated_immediate(value)
        if encoded is None:
            raise AssemblerError(
                "immediate %d is not encodable as a rotated 8-bit constant" % value,
                line_number,
                line,
            )
        imm8, rotate = encoded
        return Operand2.from_immediate(imm8, rotate)
    rm = _parse_register(token, line_number, line)
    shift_type, shift_amount = _parse_shift(parts, start + 1, symbols, line_number, line)
    return Operand2.from_register(rm, shift_type, shift_amount)


def _parse_register_list(text, line_number, line):
    text = text.strip()
    if not (text.startswith("{") and text.endswith("}")):
        raise AssemblerError("expected a register list in braces, got %r" % text, line_number, line)
    registers = set()
    for item in text[1:-1].split(","):
        item = item.strip()
        if not item:
            continue
        if "-" in item:
            low, high = item.split("-", 1)
            low_index = _parse_register(low.strip(), line_number, line)
            high_index = _parse_register(high.strip(), line_number, line)
            if high_index < low_index:
                raise AssemblerError("register range is reversed: %r" % item, line_number, line)
            registers.update(range(low_index, high_index + 1))
        else:
            registers.add(_parse_register(item, line_number, line))
    if not registers:
        raise AssemblerError("empty register list", line_number, line)
    return tuple(sorted(registers))


_ADDRESS_PRE = re.compile(r"^\[(?P<inside>[^\]]+)\](?P<bang>!?)$")
_ADDRESS_POST = re.compile(r"^\[(?P<base>[^\]]+)\]\s*,\s*(?P<offset>.+)$")


def _parse_load_store(base, cond, flags, operands, symbols, line_number, line):
    parts = _split_operands(operands)
    if len(parts) < 2:
        raise AssemblerError("load/store needs a register and an address", line_number, line)
    rd = _parse_register(parts[0], line_number, line)
    address = ", ".join(parts[1:])

    pre_index, writeback = True, False
    post_match = _ADDRESS_POST.match(address)
    if post_match:
        pre_index = False
        writeback = False
        base_text = post_match.group("base").strip()
        offset_text = post_match.group("offset").strip()
        inner_parts = [base_text] + _split_operands(offset_text)
    else:
        pre_match = _ADDRESS_PRE.match(address)
        if not pre_match:
            raise AssemblerError("cannot parse address %r" % address, line_number, line)
        writeback = bool(pre_match.group("bang"))
        inner_parts = _split_operands(pre_match.group("inside"))

    rn = _parse_register(inner_parts[0], line_number, line)
    up = True
    offset_immediate = 0
    offset_register = None
    shift_type, shift_amount = ShiftType.LSL, 0
    if len(inner_parts) > 1:
        offset_token = inner_parts[1]
        if offset_token.startswith("#") or offset_token.lstrip("-").isdigit() or offset_token.startswith("-"):
            value = _parse_integer(offset_token, symbols, line_number, line)
            up = value >= 0
            offset_immediate = abs(value)
        else:
            negative = offset_token.startswith("-")
            offset_register = _parse_register(offset_token.lstrip("-"), line_number, line)
            up = not negative
            shift_type, shift_amount = _parse_shift(inner_parts, 2, symbols, line_number, line)

    return LoadStore(
        cond=cond,
        load=(base == "ldr"),
        byte=flags["byte"],
        rd=rd,
        rn=rn,
        offset_immediate=None if offset_register is not None else offset_immediate,
        offset_register=offset_register,
        shift_type=shift_type,
        shift_amount=shift_amount,
        pre_index=pre_index,
        up=up,
        writeback=writeback,
    )


def _parse_load_store_multiple(base, cond, flags, operands, line_number, line):
    parts = _split_operands(operands)
    if len(parts) != 2:
        raise AssemblerError("ldm/stm needs a base register and a register list", line_number, line)
    base_token = parts[0]
    writeback = base_token.endswith("!")
    rn = _parse_register(base_token.rstrip("!"), line_number, line)
    register_list = _parse_register_list(parts[1], line_number, line)
    before, up = _LSM_MODES[flags["mode"]]
    return LoadStoreMultiple(
        cond=cond,
        load=(base == "ldm"),
        rn=rn,
        register_list=register_list,
        writeback=writeback,
        before=before,
        up=up,
    )


def _parse_instruction(mnemonic, operands, symbols, address, line_number, line):
    base, cond, flags = _split_mnemonic(mnemonic)
    if base is None:
        raise AssemblerError("unknown mnemonic %r" % mnemonic, line_number, line)

    if base == "dp":
        opcode = flags["opcode"]
        parts = _split_operands(operands)
        if opcode in (DataOpcode.MOV, DataOpcode.MVN):
            if len(parts) < 2:
                raise AssemblerError("%s needs two operands" % mnemonic, line_number, line)
            rd = _parse_register(parts[0], line_number, line)
            operand2 = _parse_operand2(parts, 1, symbols, line_number, line)
            return DataProcessing(cond=cond, opcode=opcode, rd=rd, rn=0,
                                  operand2=operand2, set_flags=flags["set_flags"])
        if not opcode.writes_rd:
            if len(parts) < 2:
                raise AssemblerError("%s needs two operands" % mnemonic, line_number, line)
            rn = _parse_register(parts[0], line_number, line)
            operand2 = _parse_operand2(parts, 1, symbols, line_number, line)
            return DataProcessing(cond=cond, opcode=opcode, rd=0, rn=rn,
                                  operand2=operand2, set_flags=True)
        if len(parts) < 3:
            raise AssemblerError("%s needs three operands" % mnemonic, line_number, line)
        rd = _parse_register(parts[0], line_number, line)
        rn = _parse_register(parts[1], line_number, line)
        operand2 = _parse_operand2(parts, 2, symbols, line_number, line)
        return DataProcessing(cond=cond, opcode=opcode, rd=rd, rn=rn,
                              operand2=operand2, set_flags=flags["set_flags"])

    if base in ("mul", "mla"):
        parts = _split_operands(operands)
        needed = 4 if base == "mla" else 3
        if len(parts) != needed:
            raise AssemblerError("%s needs %d operands" % (mnemonic, needed), line_number, line)
        regs = [_parse_register(p, line_number, line) for p in parts]
        return Multiply(
            cond=cond,
            rd=regs[0],
            rm=regs[1],
            rs=regs[2],
            rn=regs[3] if base == "mla" else 0,
            accumulate=(base == "mla"),
            set_flags=flags["set_flags"],
        )

    if base in ("ldr", "str"):
        return _parse_load_store(base, cond, flags, operands, symbols, line_number, line)

    if base in ("ldm", "stm"):
        return _parse_load_store_multiple(base, cond, flags, operands, line_number, line)

    if base == "b":
        target_token = operands.strip()
        if target_token in symbols:
            target = symbols[target_token]
        else:
            target = _parse_integer(target_token, symbols, line_number, line)
        delta = target - (address + 8)
        if delta % 4 != 0:
            raise AssemblerError("branch target %r is not word aligned" % target_token, line_number, line)
        return Branch(cond=cond, link=flags["link"], offset=delta // 4)

    if base == "swi":
        imm = _parse_integer(operands.strip() or "#0", symbols, line_number, line)
        return System(cond=cond, op=SystemOp.SWI, imm=imm)
    if base == "halt":
        return System(cond=cond, op=SystemOp.HALT)
    if base == "nop":
        return System(cond=cond, op=SystemOp.NOP)

    raise AssemblerError("unhandled mnemonic %r" % mnemonic, line_number, line)  # pragma: no cover


_DIRECTIVES = frozenset((".org", ".equ", ".align", ".entry", ".word", ".space"))


def _directive(state, line, line_number, raw_line):
    """Apply one directive line (``.org``, ``.equ`` ...) to ``state``."""
    parts = line.split(None, 1)
    directive = parts[0].lower()
    operand = parts[1].strip() if len(parts) > 1 else ""
    if directive not in _DIRECTIVES:
        raise AssemblerError("unknown directive", line_number, raw_line)
    if not operand and directive != ".align":
        raise AssemblerError("%s needs an operand" % directive, line_number, raw_line)
    if directive == ".org":
        state.location = _parse_integer(operand, state.symbols, line_number, raw_line)
        if state.origin == 0 and not state.statements:
            state.origin = state.location
    elif directive == ".equ":
        name, comma, value = operand.partition(",")
        if not comma or not name.strip():
            raise AssemblerError(".equ needs NAME, VALUE", line_number, raw_line)
        state.symbols[name.strip()] = _parse_integer(value, state.symbols, line_number, raw_line)
    elif directive == ".align":
        while state.location % 4:
            state.location += 1
    elif directive == ".entry":
        state.entry = operand
    elif directive == ".word":
        values = _split_operands(operand)
        statement = _Statement(state.location, line_number, raw_line, "word", values, 4 * len(values))
        state.statements.append(statement)
        state.location += statement.size
    else:  # .space
        size = _parse_integer(operand, state.symbols, line_number, raw_line)
        state.statements.append(_Statement(state.location, line_number, raw_line, "space", None, size))
        state.location += size


def _first_pass(source):
    """Collect labels, ``.equ`` symbols and statement addresses."""
    state = _ParserState()
    for line_number, raw_line in enumerate(source.splitlines(), start=1):
        line = _strip_comment(raw_line)
        if not line:
            continue
        while True:
            match = re.match(r"^([A-Za-z_.$][\w.$]*):\s*(.*)$", line)
            if not match:
                break
            label, line = match.group(1), match.group(2).strip()
            if label in state.symbols:
                raise AssemblerError("duplicate label %r" % label, line_number, raw_line)
            state.symbols[label] = state.location
        if not line:
            continue

        if line.startswith("."):
            _directive(state, line, line_number, raw_line)
            continue

        tokens = line.split(None, 1)
        mnemonic = tokens[0]
        operands = tokens[1] if len(tokens) > 1 else ""
        statement = _Statement(state.location, line_number, raw_line, "instruction", (mnemonic, operands))
        state.statements.append(statement)
        state.location += 4
    return state


def assemble(source, origin=0):
    """Assemble source text into a :class:`Program`.

    ``origin`` is the load address of the first statement unless the source
    overrides it with ``.org``.
    """
    state = _first_pass(source)
    if not state.statements:
        raise AssemblerError("no statements in source")
    base_address = state.statements[0].address or origin
    if origin and not state.statements[0].address:
        # Shift everything to the requested origin.
        for statement in state.statements:
            statement.address += origin
        state.symbols = {name: value + origin for name, value in state.symbols.items()}
        base_address = origin

    end = max(s.address + s.size for s in state.statements)
    words = [0] * ((end - base_address + 3) // 4)

    for statement in state.statements:
        index = (statement.address - base_address) // 4
        if statement.kind == "instruction":
            mnemonic, operands = statement.payload
            instr = _parse_instruction(
                mnemonic, operands, state.symbols, statement.address,
                statement.line_number, statement.text,
            )
            words[index] = encode(instr)
        elif statement.kind == "word":
            for offset, token in enumerate(statement.payload):
                token = token.strip()
                if token in state.symbols:
                    value = state.symbols[token]
                else:
                    value = _parse_integer(token, state.symbols, statement.line_number, statement.text)
                words[index + offset] = value & 0xFFFFFFFF
        # "space" leaves zero-filled words in place.

    entry = base_address
    if state.entry is not None:
        if state.entry not in state.symbols:
            raise AssemblerError("unknown entry label %r" % state.entry)
        entry = state.symbols[state.entry]
    elif "_start" in state.symbols:
        entry = state.symbols["_start"]
    elif "main" in state.symbols:
        entry = state.symbols["main"]

    return Program(words=tuple(words), origin=base_address, entry=entry, symbols=dict(state.symbols))


def assemble_file(path, origin=0):
    """Assemble a file on disk; see :func:`assemble`."""
    with open(path) as handle:
        return assemble(handle.read(), origin=origin)
