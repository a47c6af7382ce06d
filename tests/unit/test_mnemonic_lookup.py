"""The assembler's mnemonic lookup against the prefix scan it replaced.

``_split_mnemonic`` looks a mnemonic's base spelling, condition and flag
suffix up in dicts built at import.  The scan below is the splitter it
replaced, kept verbatim as the reference:
every base × condition suffix × flag/mode suffix spelling, its upper-case
form and a set of near misses must split the same way (or fail the same
way), except the explicit always condition ``al``, which the scan
rejected.  The kernels and the synthetic pool must assemble to the same
words under both.
"""

import importlib.util
import itertools
import sys
from pathlib import Path

import pytest

from repro.isa import AssemblerError, assemble, decode
from repro.isa import assembler as asm
from repro.isa.conditions import Condition, condition_from_suffix
from repro.workloads import get_workload

_SCAN_CONDITION_SUFFIXES = sorted(
    (c.mnemonic_suffix for c in Condition if c is not Condition.AL), key=len, reverse=True
)


def scan_split_mnemonic(mnemonic):
    """The prefix-scan splitter the lookup replaced (reference only)."""
    mnemonic = mnemonic.lower()

    def try_cond(rest):
        for suffix in _SCAN_CONDITION_SUFFIXES:
            if rest.startswith(suffix):
                return condition_from_suffix(suffix), rest[len(suffix):]
        return Condition.AL, rest

    for base in ("ldm", "stm"):
        if mnemonic.startswith(base) and len(mnemonic) > 3:
            cond, rest = try_cond(mnemonic[3:])
            if rest in asm._LSM_MODES:
                return base, cond, {"mode": rest}
            aliases = asm._STACK_ALIASES_LDM if base == "ldm" else asm._STACK_ALIASES_STM
            if rest in aliases:
                return base, cond, {"mode": aliases[rest]}

    for base in ("ldr", "str"):
        if mnemonic.startswith(base):
            cond, rest = try_cond(mnemonic[3:])
            if rest == "":
                return base, cond, {"byte": False}
            if rest == "b":
                return base, cond, {"byte": True}

    for base in ("mla", "mul"):
        if mnemonic.startswith(base):
            cond, rest = try_cond(mnemonic[3:])
            if rest == "":
                return base, cond, {"set_flags": False}
            if rest == "s":
                return base, cond, {"set_flags": True}

    for base in ("swi", "halt", "nop"):
        if mnemonic.startswith(base):
            cond, rest = try_cond(mnemonic[len(base):])
            if rest == "":
                return base, cond, {}

    for name, opcode in asm._DATA_OPCODES.items():
        if mnemonic.startswith(name):
            cond, rest = try_cond(mnemonic[len(name):])
            if rest == "":
                return "dp", cond, {"opcode": opcode, "set_flags": not opcode.writes_rd}
            if rest == "s":
                return "dp", cond, {"opcode": opcode, "set_flags": True}

    if mnemonic.startswith("b"):
        rest = mnemonic[1:]
        cond, leftover = try_cond(rest)
        if leftover == "":
            return "b", cond, {"link": False}
        if rest.startswith("l"):
            cond, leftover = try_cond(rest[1:])
            if leftover == "":
                return "b", cond, {"link": True}

    return None, None, None


BASES = ("ldm", "stm", "ldr", "str", "mla", "mul", "swi", "halt", "nop", "b", "bl")
BASES += tuple(asm._DATA_OPCODES)
FLAG_SUFFIXES = ("", "s", "b", "l") + tuple(asm._LSM_MODES) + tuple(asm._STACK_ALIASES_LDM)
CONDITION_SUFFIXES = ("",) + tuple(c.name.lower() for c in Condition)
NEAR_MISSES = (
    "bx", "ldmfdx", "adds2", "ldrbeq", "addseq", "ldmiaeq", "blx", "bll", "bals",
    "ldm", "stm", "ld", "a", "", "mov.", "movss", "swis", "haltb", "nopeqs", "ldrsb",
    "ldrhb", "mulb", "bic1", "teqq", "cmpeqq", "stmeqfdx", "blalal", "alb",
)


def spellings():
    for base, cond, flag in itertools.product(BASES, CONDITION_SUFFIXES, FLAG_SUFFIXES):
        yield base + cond + flag
        # The post-UAL order (flags before the condition) is not accepted.
        yield base + flag + cond
    yield from NEAR_MISSES


def test_every_spelling_splits_as_the_scan_did():
    checked = explicit_always = 0
    for lower in set(spellings()):
        for mnemonic in (lower, lower.upper(), lower.capitalize()):
            expected = scan_split_mnemonic(mnemonic)
            got = asm._split_mnemonic(mnemonic)
            if expected[0] is None and got[0] is not None:
                # Only the explicit always condition is new: it reads as the
                # unsuffixed form.
                stripped = _without_always(lower)
                assert stripped is not None, mnemonic
                assert got == scan_split_mnemonic(stripped), mnemonic
                assert got[1] is Condition.AL
                explicit_always += 1
            else:
                assert got == expected, mnemonic
            checked += 1
    assert checked > 3 * 2000
    # Every base and flag/mode suffix, once per letter case.
    forms = sum(len(suffixes) for _, suffixes in asm._MNEMONIC_FORMS.values())
    assert explicit_always == 3 * forms == 3 * 61


def _without_always(mnemonic):
    """``mnemonic`` with its condition field ``al`` removed, if it has one."""
    for spelling in sorted(BASES, key=len, reverse=True):
        if mnemonic.startswith(spelling + "al"):
            candidate = spelling + mnemonic[len(spelling) + 2:]
            if scan_split_mnemonic(candidate)[0] is not None:
                return candidate
    return None


def test_the_accepted_spellings_are_the_scans_and_their_al_forms():
    by_scan = {m for m in set(spellings()) if scan_split_mnemonic(m)[0] is not None}
    accepted = {m for m in set(spellings()) if asm._split_mnemonic(m)[0] is not None}
    always = accepted - by_scan
    assert by_scan <= accepted
    assert len(accepted) == 16 * len(always)
    assert all(_without_always(m) in by_scan for m in always)


@pytest.mark.parametrize("line,plain", [
    ("bal end", "b end"),
    ("blal end", "bl end"),
    ("moval r0, #1", "mov r0, #1"),
    ("addal r0, r0, #1", "add r0, r0, #1"),
    ("addals r0, r0, #1", "adds r0, r0, #1"),
    ("cmpal r0, #1", "cmp r0, #1"),
    ("ldralb r1, [r0]", "ldrb r1, [r0]"),
    ("stmalfd sp!, {r4, lr}", "stmfd sp!, {r4, lr}"),
    ("mulals r2, r0, r1", "muls r2, r0, r1"),
    ("swial #3", "swi #3"),
    ("nopal", "nop"),
    ("haltal", "halt"),
    ("MOVAL R0, #1", "mov r0, #1"),
])
def test_explicit_always_encodes_like_the_unsuffixed_form(line, plain):
    def program(text):
        return assemble("%s\nend:\n    halt\n" % text).words

    assert program(line) == program(plain)
    assert decode(program(line)[0]).cond is Condition.AL


@pytest.mark.parametrize("mnemonic", ["bx", "ldmfdx", "adds2", "ldrbeq", "addseq"])
def test_near_misses_are_unknown(mnemonic):
    with pytest.raises(AssemblerError, match="unknown mnemonic %r" % mnemonic):
        assemble("    %s r0, r1\n" % mnemonic)


def _pool_sources():
    path = Path(__file__).resolve().parents[2] / "perfbench" / "suite.py"
    spec = importlib.util.spec_from_file_location("perfbench_suite", path)
    suite = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = suite  # its dataclasses look their module up
    spec.loader.exec_module(suite)
    return [suite.synthetic_source(generator) for generator in suite.synthetic_pool()]


def test_kernels_and_pool_assemble_to_the_same_words(monkeypatch):
    sources = [
        get_workload(name, scale).source
        for name in ("adpcm", "blowfish", "compress", "crc", "g721", "go")
        for scale in (1, 2)
    ]
    sources += _pool_sources()
    assert len(sources) == 12 + 24

    looked_up = [assemble(source) for source in sources]
    monkeypatch.setattr(asm, "_split_mnemonic", scan_split_mnemonic)
    scanned = [assemble(source) for source in sources]
    for by_lookup, by_scan in zip(looked_up, scanned):
        assert by_lookup.words == by_scan.words
        assert by_lookup.symbols == by_scan.symbols
        assert by_lookup.entry == by_scan.entry
