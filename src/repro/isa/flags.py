"""Condition flags (NZCV) of the processor status register."""

from __future__ import annotations

from dataclasses import dataclass

MASK32 = 0xFFFFFFFF


def to_signed(value):
    """Interpret a 32-bit unsigned value as a signed integer."""
    value &= MASK32
    if value & 0x80000000:
        return value - 0x100000000
    return value


def to_unsigned(value):
    """Truncate a Python integer to its 32-bit unsigned representation."""
    return value & MASK32


def pack_flags(n, z, c, v):
    """Pack the four condition flags into an integer nibble (N Z C V)."""
    return (8 if n else 0) | (4 if z else 0) | (2 if c else 0) | (1 if v else 0)


@dataclass
class ConditionFlags:
    """The four ARM-style condition flags.

    ``n`` negative, ``z`` zero, ``c`` carry (NOT borrow for subtraction),
    ``v`` signed overflow.
    """

    n: bool = False
    z: bool = False
    c: bool = False
    v: bool = False

    def copy(self):
        return ConditionFlags(self.n, self.z, self.c, self.v)

    def set_nz(self, result):
        """Update N and Z from a 32-bit result."""
        result = to_unsigned(result)
        self.n = bool(result & 0x80000000)
        self.z = result == 0

    def update_add(self, a, b, carry_in=0):
        """Set all four flags for ``a + b + carry_in`` and return the result."""
        a = to_unsigned(a)
        b = to_unsigned(b)
        full = a + b + carry_in
        result = full & MASK32
        self.set_nz(result)
        self.c = full > MASK32
        self.v = (to_signed(a) + to_signed(b) + carry_in) != to_signed(result)
        return result

    def update_sub(self, a, b, carry_in=1):
        """Set all four flags for ``a - b - (1 - carry_in)`` and return the result.

        Follows the ARM convention where carry means "no borrow".
        """
        return self.update_add(a, (~b) & MASK32, carry_in)

    @property
    def nzcv(self):
        """The flags packed as a nibble (see :func:`pack_flags`)."""
        return pack_flags(self.n, self.z, self.c, self.v)

    def as_tuple(self):
        return (self.n, self.z, self.c, self.v)

    def __str__(self):
        return "".join(
            letter if flag else letter.lower() + "̸"
            for letter, flag in zip("NZCV", self.as_tuple())
        )
