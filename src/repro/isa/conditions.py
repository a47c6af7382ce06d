"""Condition codes controlling conditional execution of instructions.

Evaluation reads a 15x16 truth table indexed by condition and NZCV nibble,
built once at import from the readable case analysis in :func:`_passes`.
:func:`condition_passes_nzcv` takes the nibble the RCPN CPSR register
holds; :func:`condition_passes` takes a :class:`ConditionFlags`.
"""

from __future__ import annotations

from enum import IntEnum


class Condition(IntEnum):
    """ARM-style 4-bit condition codes (subset: ``NV`` is unused)."""

    EQ = 0x0  # equal (Z set)
    NE = 0x1  # not equal (Z clear)
    CS = 0x2  # carry set / unsigned higher or same
    CC = 0x3  # carry clear / unsigned lower
    MI = 0x4  # minus / negative
    PL = 0x5  # plus / positive or zero
    VS = 0x6  # overflow set
    VC = 0x7  # overflow clear
    HI = 0x8  # unsigned higher
    LS = 0x9  # unsigned lower or same
    GE = 0xA  # signed greater or equal
    LT = 0xB  # signed less than
    GT = 0xC  # signed greater than
    LE = 0xD  # signed less or equal
    AL = 0xE  # always

    @property
    def mnemonic_suffix(self):
        """Assembly suffix; the always condition has no suffix."""
        if self is Condition.AL:
            return ""
        return self.name.lower()


_SUFFIXES = {cond.name.lower(): cond for cond in Condition}


def condition_from_suffix(suffix):
    """Map an assembly condition suffix (``eq``, ``ne`` ...) to a Condition."""
    if not suffix:
        return Condition.AL
    try:
        return _SUFFIXES[suffix.lower()]
    except KeyError:
        raise ValueError("unknown condition suffix: %r" % (suffix,)) from None


def _passes(cond, n, z, c, v):
    """The case analysis of one condition code; the truth table is built from it."""
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


#: ``_TRUTH[cond][nzcv]``: whether ``cond`` passes under the flags nibble
#: ``nzcv`` (N Z C V, most significant first, as the RCPN CPSR stores it).
_TRUTH = {
    cond: tuple(_passes(cond, nzcv & 8 != 0, nzcv & 4 != 0, nzcv & 2 != 0, nzcv & 1 != 0) for nzcv in range(16))
    for cond in Condition
}


def condition_passes_nzcv(condition, nzcv):
    """Evaluate a condition code against a packed NZCV flags nibble."""
    try:
        return _TRUTH[condition][nzcv]
    except KeyError:
        raise ValueError("unknown condition code: %r" % (condition,)) from None


def condition_passes(condition, flags):
    """Evaluate a condition code against a :class:`ConditionFlags` value."""
    return condition_passes_nzcv(condition, flags.nzcv)
