"""Flat byte-addressable main memory with a fixed access latency."""

from __future__ import annotations


class MainMemory:
    """Sparse 32-bit address-space memory.

    Words are stored little-endian in a dictionary keyed by word-aligned
    address, so large sparse address spaces (code at one address, stack near
    the top of memory) cost no more than the words actually touched.
    """

    def __init__(self, latency=10, default_value=0):
        self.latency = latency
        self.default_value = default_value & 0xFFFFFFFF
        self._words = {}
        self.read_count = 0
        self.write_count = 0

    def reset_statistics(self):
        self.read_count = 0
        self.write_count = 0

    def _aligned(self, address):
        return address & 0xFFFFFFFC

    def read_word(self, address):
        """Read the 32-bit word containing ``address`` (alignment is forced)."""
        self.read_count += 1
        return self._words.get(self._aligned(address), self.default_value)

    def write_word(self, address, value):
        """Write a 32-bit word at the aligned ``address``."""
        self.write_count += 1
        self._words[self._aligned(address)] = value & 0xFFFFFFFF

    def read_byte(self, address):
        word = self._words.get(self._aligned(address), self.default_value)
        shift = 8 * (address & 3)
        return (word >> shift) & 0xFF

    def write_byte(self, address, value):
        aligned = self._aligned(address)
        shift = 8 * (address & 3)
        word = self._words.get(aligned, self.default_value)
        word &= ~(0xFF << shift) & 0xFFFFFFFF
        word |= (value & 0xFF) << shift
        self.write_count += 1
        self._words[aligned] = word

    def load_program(self, program):
        """Load an assembled :class:`~repro.isa.program.Program` image."""
        program.load_into(self)

    def access_latency(self, address, is_write=False):
        """Latency in cycles of an access to ``address``.

        ``is_write`` is accepted for protocol compatibility with
        :class:`~repro.memory.cache.Cache` (cache writebacks propagate it);
        the flat memory charges reads and writes identically.
        """
        return self.latency
