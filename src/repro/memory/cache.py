"""Set-associative write-back cache model with LRU replacement.

Only timing and hit/miss behaviour are modeled in the cache itself; data
always lives in the backing store.  This mirrors how trace-driven
cycle-accurate simulators (including SimpleScalar's ``sim-cache``-derived
models) treat caches: the simulator needs latencies and statistics, while
correctness of data comes from the functional memory image.

Caches chain: ``backing`` may be another :class:`Cache` (an L2) or the
:class:`~repro.memory.main_memory.MainMemory` at the bottom.  A miss charges
the backing store's access latency on top of the level's own cost, and the
eviction of a *dirty* line writes the victim back through the same chain —
so an L1 writeback lands in the L2 (allocating or dirtying the victim's
line there) and only an L2 writeback reaches memory.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and timing of one cache level."""

    name: str = "L1"
    size_bytes: int = 32 * 1024
    line_bytes: int = 32
    associativity: int = 32
    hit_latency: int = 1
    miss_penalty: int = 30

    def __post_init__(self):
        for problem in cache_geometry_problems(
            size_bytes=self.size_bytes,
            line_bytes=self.line_bytes,
            associativity=self.associativity,
            hit_latency=self.hit_latency,
            miss_penalty=self.miss_penalty,
        ):
            raise ValueError("cache %r: %s" % (self.name, problem))

    @property
    def num_sets(self):
        return self.size_bytes // (self.line_bytes * self.associativity)


def cache_geometry_problems(size_bytes, line_bytes, associativity, hit_latency, miss_penalty):
    """Every inconsistency in one cache level's geometry/timing, as strings.

    Shared by :class:`CacheConfig` (which raises on the first problem) and
    the declarative :class:`~repro.describe.spec.CacheLevelSpec` validation
    (which collects them all), so both layers reject exactly the same
    configurations.  The checks are ordered so that a zero or negative
    associativity is reported as such instead of surfacing later as a
    ``ZeroDivisionError`` from the set-count division.
    """
    problems = []
    if not isinstance(associativity, int) or associativity < 1:
        problems.append("associativity %r must be a positive integer" % (associativity,))
    if not isinstance(line_bytes, int) or line_bytes <= 0 or line_bytes & (line_bytes - 1):
        problems.append("line size %r must be a positive power of two" % (line_bytes,))
    if not isinstance(size_bytes, int) or size_bytes <= 0:
        problems.append("cache size %r must be a positive integer" % (size_bytes,))
    if not isinstance(hit_latency, int) or hit_latency < 0:
        problems.append("hit latency %r must be a non-negative integer" % (hit_latency,))
    if not isinstance(miss_penalty, int) or miss_penalty < 0:
        problems.append("miss penalty %r must be a non-negative integer" % (miss_penalty,))
    if not problems and size_bytes % (line_bytes * associativity):
        problems.append(
            "cache size %d is not a multiple of line size * associativity (%d * %d)"
            % (size_bytes, line_bytes, associativity)
        )
    return problems


@dataclass
class CacheStatistics:
    """Counters accumulated by a cache during simulation.

    ``miss_cycles`` is the total latency charged by miss accesses —
    fill-from-backing plus any dirty-victim writeback, plus the level's own
    cost — so the *price* of a miss stream is directly comparable across
    hierarchies (an L2-backed L1 must show fewer miss cycles than the same
    miss stream served memory-direct).
    """

    accesses: int = 0
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    writebacks: int = 0
    miss_cycles: int = 0

    @property
    def hit_rate(self):
        if self.accesses == 0:
            return 0.0
        return self.hits / self.accesses

    @property
    def miss_rate(self):
        if self.accesses == 0:
            return 0.0
        return self.misses / self.accesses

    def as_dict(self):
        """Counters plus derived rates as JSON-compatible plain data."""
        return {
            "accesses": self.accesses,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "writebacks": self.writebacks,
            "miss_cycles": self.miss_cycles,
            "hit_rate": self.hit_rate,
            "miss_rate": self.miss_rate,
        }


class _CacheSet:
    """One set: an ordered mapping from tag to dirty bit.

    Recency order is the dict's insertion order: ``touch``/``mark_dirty``
    re-append a tag, so the *front* is the least-recently-used line and
    ``insert`` evicts it (``next(iter(...))``).
    """

    __slots__ = ("lines",)

    def __init__(self):
        self.lines = {}

    def lookup(self, tag):
        return tag in self.lines

    def touch(self, tag):
        dirty = self.lines.pop(tag)
        self.lines[tag] = dirty

    def insert(self, tag, associativity, dirty=False):
        """Insert a tag; returns the evicted (tag, dirty) pair or ``None``."""
        evicted = None
        if len(self.lines) >= associativity:
            victim_tag = next(iter(self.lines))
            evicted = (victim_tag, self.lines.pop(victim_tag))
        self.lines[tag] = dirty
        return evicted

    def mark_dirty(self, tag):
        self.lines.pop(tag)
        self.lines[tag] = True


class Cache:
    """A single cache level in front of a backing store.

    ``backing`` must expose ``access_latency(address, is_write=False)``
    (another :class:`Cache` or a :class:`~repro.memory.main_memory.MainMemory`);
    the cache adds its own hit latency and charges the backing latency (as
    ``miss_penalty`` plus the backing store's own latency) on misses.  A
    miss always fills by *reading* the backing store, whatever the original
    access was (write-allocate); evicting a dirty victim additionally
    writes the victim line back into the backing store and charges that
    access too (write-back charging through levels).
    """

    def __init__(self, config, backing=None):
        self.config = config
        self.backing = backing
        self.stats = CacheStatistics()
        #: The geometry ``_locate`` divides by (the hook templates' inline
        #: hit path reads them too).
        self.line_bytes = config.line_bytes
        self.set_count = config.num_sets
        self._sets = [_CacheSet() for _ in range(config.num_sets)]
        #: The line number (``address // line_bytes``) of the latest access,
        #: which is therefore the most recently used line of its set: a
        #: read of it again hits and changes no LRU order.  ``None`` when
        #: cold.  Set by :meth:`access`, :meth:`reset` and the hook
        #: templates' inline hit paths, so the generated fetch can take
        #: its same-line hit without a set lookup.
        self.last_line = None
        #: Optional trace callback ``(level, kind, address, latency)`` with
        #: kind in {"hit", "miss", "fill", "writeback"}.  Observation only —
        #: counters and latencies are identical with or without it.
        self.trace = None

    def reset(self):
        """Restore the cold state: statistics cleared and every line invalid."""
        self.stats = CacheStatistics()
        self._sets = [_CacheSet() for _ in range(self.config.num_sets)]
        self.last_line = None

    def reset_statistics(self):
        """Clear the counters only; resident lines stay warm."""
        self.stats = CacheStatistics()

    def _locate(self, address):
        line = address // self.line_bytes
        index = line % self.set_count
        tag = line // self.set_count
        return self._sets[index], tag, index

    def access(self, address, is_write=False):
        """Perform one access; returns the latency in cycles."""
        cache_set, tag, index = self._locate(address)
        # A hit makes the line most recently used; a miss inserts it so.
        self.last_line = address // self.line_bytes
        trace = self.trace
        self.stats.accesses += 1
        if cache_set.lookup(tag):
            self.stats.hits += 1
            if is_write:
                cache_set.mark_dirty(tag)
            else:
                cache_set.touch(tag)
            if trace is not None:
                trace(self.config.name, "hit", address, self.config.hit_latency)
            return self.config.hit_latency

        self.stats.misses += 1
        latency = self.config.hit_latency + self.config.miss_penalty
        if trace is not None:
            trace(self.config.name, "miss", address, latency)
        if self.backing is not None:
            latency += self.backing.access_latency(address)
        evicted = cache_set.insert(tag, self.config.associativity, dirty=is_write)
        if evicted is not None:
            self.stats.evictions += 1
            victim_tag, victim_dirty = evicted
            if victim_dirty:
                self.stats.writebacks += 1
                victim_address = (
                    victim_tag * self.config.num_sets + index
                ) * self.config.line_bytes
                if trace is not None:
                    trace(self.config.name, "writeback", victim_address, None)
                if self.backing is not None:
                    latency += self.backing.access_latency(victim_address, is_write=True)
        self.stats.miss_cycles += latency
        if trace is not None:
            trace(self.config.name, "fill", address, latency)
        return latency

    def access_latency(self, address, is_write=False):
        """Alias of :meth:`access`, matching the backing-store protocol."""
        return self.access(address, is_write)

    def contains(self, address):
        """True if the line holding ``address`` is currently resident."""
        cache_set, tag, _index = self._locate(address)
        return cache_set.lookup(tag)
