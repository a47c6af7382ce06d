"""Memory hierarchy combining main memory with first-level caches and an
optional shared second level.

This is the non-pipeline unit that RCPN transitions reference to obtain
data-dependent latencies (paper Section 3.2, transition ``M`` in the
LoadStore sub-net: ``t.delay = mem.delay(addr)``).  The hierarchy is
usually *elaborated* from the declarative
:class:`~repro.describe.spec.MemorySpec` of a pipeline description; the
:class:`MemorySystemConfig` here is the runtime mirror of that spec.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.memory.cache import Cache, CacheConfig
from repro.memory.main_memory import MainMemory


@dataclass(frozen=True)
class MemorySystemConfig:
    """Configuration of a cache hierarchy in front of a fixed-latency memory.

    The defaults follow the XScale/StrongARM organisation: 32 KB 32-way
    split instruction and data caches with 32-byte lines in front of a
    fixed-latency memory, no second level.  The caches' own
    ``miss_penalty`` is zero here because the full miss cost is charged as
    the backing store's latency.

    * ``l2`` — an optional shared second-level cache between the L1s and
      memory (L1 misses fill from it, L1 writebacks land in it);
    * ``unified_l1`` — instruction and data share one L1 cache; the
      ``icache`` and ``dcache`` configurations must then be identical
      (one :class:`Cache` instance serves both sides).
    """

    icache: CacheConfig = field(
        default_factory=lambda: CacheConfig(name="I$", miss_penalty=0)
    )
    dcache: CacheConfig = field(
        default_factory=lambda: CacheConfig(name="D$", miss_penalty=0)
    )
    memory_latency: int = 30
    l2: CacheConfig = None
    unified_l1: bool = False

    def __post_init__(self):
        if not isinstance(self.memory_latency, int) or self.memory_latency < 0:
            raise ValueError(
                "memory latency %r must be a non-negative integer" % (self.memory_latency,)
            )
        if self.l2 is not None and not isinstance(self.l2, CacheConfig):
            raise ValueError("l2 must be a CacheConfig or None, got %r" % (self.l2,))
        if self.unified_l1 and self.icache != self.dcache:
            raise ValueError(
                "a unified L1 needs identical icache/dcache configurations "
                "(got %r vs %r)" % (self.icache, self.dcache)
            )


class MemorySystem:
    """Functional storage plus timing model.

    * ``read_word`` / ``write_word`` / ``read_byte`` / ``write_byte`` are the
      functional interface used for architectural state (always correct, no
      timing involved);
    * ``instruction_delay(address)`` and ``data_delay(address, is_write)``
      return access latencies in cycles and update cache statistics; the
      processor models use these to set token delays.

    With an L2 configured, the first levels back onto it and it backs onto
    memory, so L1 misses, L1 writebacks and L2 writebacks are all charged
    through the chain (see :class:`~repro.memory.cache.Cache`).
    """

    def __init__(self, config=None):
        self.config = config or MemorySystemConfig()
        self.memory = MainMemory(latency=self.config.memory_latency)
        self.trace = None
        self._build_caches()

    def attach_trace(self, callback):
        """Attach a ``(level, kind, address, latency)`` trace callback.

        The attachment survives :meth:`reset` (which rebuilds the cache
        objects); pass ``None`` to detach.  Tracing is observation only —
        statistics and latencies are identical with or without it.
        """
        self.trace = callback
        self._attach_trace_to_caches()

    def _attach_trace_to_caches(self):
        for cache in (self.icache, self.dcache, self.l2):
            if cache is not None:
                cache.trace = self.trace

    def _build_caches(self):
        config = self.config
        self.l2 = Cache(config.l2, backing=self.memory) if config.l2 is not None else None
        backing = self.l2 if self.l2 is not None else self.memory
        if config.unified_l1:
            unified = Cache(config.dcache, backing=backing)
            self.icache = self.dcache = unified
        else:
            self.icache = Cache(config.icache, backing=backing)
            self.dcache = Cache(config.dcache, backing=backing)
        if self.trace is not None:
            self._attach_trace_to_caches()

    # -- functional interface -------------------------------------------------
    def read_word(self, address):
        return self.memory.read_word(address)

    def write_word(self, address, value):
        self.memory.write_word(address, value)

    def read_byte(self, address):
        return self.memory.read_byte(address)

    def write_byte(self, address, value):
        self.memory.write_byte(address, value)

    def load_program(self, program):
        self.memory.load_program(program)

    # -- timing interface -----------------------------------------------------
    def instruction_delay(self, address):
        """Latency of an instruction fetch at ``address``."""
        return self.icache.access(address, is_write=False)

    def data_delay(self, address, is_write=False):
        """Latency of a data access at ``address``."""
        return self.dcache.access(address, is_write=is_write)

    # Paper-style alias used in the LoadStore sub-net example (Figure 5).
    def delay(self, address, is_write=False):
        return self.data_delay(address, is_write)

    def reset(self):
        """Restore the cold state: statistics cleared, every line invalid, memory empty.

        This is what :meth:`~repro.describe.substrate.Processor.reset` needs
        for run-to-run bit-identity — a reused processor must not start its
        second run with a warm cache, nor read back the previous run's
        stores.  Load the program again afterwards.
        """
        self._build_caches()
        # In place: the fetch and load templates read MAIN._words directly.
        self.memory._words.clear()
        self.memory.reset_statistics()

    def reset_statistics(self):
        """Clear the counters only; cache line state stays warm.

        Use :meth:`reset` when re-running a workload for reproducible
        statistics — warm lines make the second run faster than the first.
        """
        self.icache.reset_statistics()
        self.dcache.reset_statistics()
        if self.l2 is not None:
            self.l2.reset_statistics()
        self.memory.reset_statistics()

    def statistics(self):
        """Return a dictionary of cache statistics for reporting.

        With a unified L1 the ``icache`` and ``dcache`` entries are the
        *same* :class:`~repro.memory.cache.CacheStatistics` object (one
        cache serves both sides); ``l2`` is present only when configured.
        """
        stats = {
            "icache": self.icache.stats,
            "dcache": self.dcache.stats,
            "memory_reads": self.memory.read_count,
            "memory_writes": self.memory.write_count,
        }
        if self.l2 is not None:
            stats["l2"] = self.l2.stats
        return stats

    def statistics_summary(self):
        """Cache statistics as JSON-compatible plain data (campaign results)."""
        summary = {
            "icache": self.icache.stats.as_dict(),
            "dcache": self.dcache.stats.as_dict(),
            "l2": self.l2.stats.as_dict() if self.l2 is not None else None,
            "memory_reads": self.memory.read_count,
            "memory_writes": self.memory.write_count,
            "unified_l1": self.config.unified_l1,
        }
        return summary

    def describe_hierarchy(self):
        """The hierarchy's *geometry* as plain data (generation reports).

        Unlike :meth:`statistics` this is known before any simulation runs:
        one entry per level, top to bottom, ending with the flat memory.
        """

        def level(cache):
            config = cache.config
            return {
                "name": config.name,
                "size_bytes": config.size_bytes,
                "line_bytes": config.line_bytes,
                "associativity": config.associativity,
                "hit_latency": config.hit_latency,
                "miss_penalty": config.miss_penalty,
            }

        levels = []
        if self.config.unified_l1:
            levels.append(dict(level(self.icache), role="l1-unified"))
        else:
            levels.append(dict(level(self.icache), role="l1-instruction"))
            levels.append(dict(level(self.dcache), role="l1-data"))
        if self.l2 is not None:
            levels.append(dict(level(self.l2), role="l2"))
        levels.append({"name": "memory", "role": "memory", "latency": self.config.memory_latency})
        return levels
