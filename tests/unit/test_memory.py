"""Unit tests for the memory substrate: memory, caches, predictors."""

import pytest

from repro.memory import (
    BranchTargetBuffer,
    Cache,
    CacheConfig,
    MainMemory,
    MemorySystem,
    MemorySystemConfig,
    StaticNotTakenPredictor,
)


# -- main memory ---------------------------------------------------------------

def test_memory_word_read_write_roundtrip():
    memory = MainMemory()
    memory.write_word(0x100, 0xDEADBEEF)
    assert memory.read_word(0x100) == 0xDEADBEEF


def test_memory_unwritten_locations_return_default():
    memory = MainMemory(default_value=0)
    assert memory.read_word(0x5000) == 0


def test_memory_byte_access_is_little_endian():
    memory = MainMemory()
    memory.write_word(0x200, 0x11223344)
    assert memory.read_byte(0x200) == 0x44
    assert memory.read_byte(0x203) == 0x11
    memory.write_byte(0x201, 0xAA)
    assert memory.read_word(0x200) == 0x1122AA44


def test_memory_alignment_is_forced():
    memory = MainMemory()
    memory.write_word(0x103, 7)
    assert memory.read_word(0x100) == 7


def test_memory_counts_accesses():
    memory = MainMemory()
    memory.write_word(0, 1)
    memory.read_word(0)
    memory.read_word(4)
    assert memory.write_count == 1
    assert memory.read_count == 2


# -- cache ----------------------------------------------------------------------

def test_cache_config_validation():
    with pytest.raises(ValueError):
        CacheConfig(line_bytes=24)
    with pytest.raises(ValueError):
        CacheConfig(size_bytes=1000, line_bytes=32, associativity=4)


def test_cache_config_rejects_non_positive_associativity():
    # Regression: associativity <= 0 used to slip through __post_init__ and
    # surface later as a ZeroDivisionError from num_sets.
    with pytest.raises(ValueError, match="associativity"):
        CacheConfig(associativity=0)
    with pytest.raises(ValueError, match="associativity"):
        CacheConfig(associativity=-8)


def test_cache_config_rejects_negative_latencies():
    # Regression: negative latencies produced negative token delays.
    with pytest.raises(ValueError, match="hit latency"):
        CacheConfig(hit_latency=-1)
    with pytest.raises(ValueError, match="miss penalty"):
        CacheConfig(miss_penalty=-5)
    with pytest.raises(ValueError, match="cache size"):
        CacheConfig(size_bytes=0, line_bytes=32, associativity=1)


def test_cache_miss_then_hit():
    cache = Cache(CacheConfig(size_bytes=1024, line_bytes=32, associativity=2,
                              hit_latency=1, miss_penalty=10))
    first = cache.access(0x40)
    second = cache.access(0x44)  # same line
    assert first == 11
    assert second == 1
    assert cache.stats.misses == 1 and cache.stats.hits == 1


def test_cache_lru_eviction_within_a_set():
    config = CacheConfig(size_bytes=128, line_bytes=32, associativity=2, hit_latency=1, miss_penalty=5)
    cache = Cache(config)
    num_sets = config.num_sets
    stride = 32 * num_sets  # same set, different tags
    cache.access(0)
    cache.access(stride)
    cache.access(0)              # touch to make address 0 most recently used
    cache.access(2 * stride)     # evicts `stride`
    assert cache.contains(0)
    assert not cache.contains(stride)
    assert cache.stats.evictions == 1


def test_cache_writeback_counted_for_dirty_victims():
    config = CacheConfig(size_bytes=64, line_bytes=32, associativity=1, hit_latency=1, miss_penalty=5)
    cache = Cache(config)
    stride = 32 * config.num_sets
    cache.access(0, is_write=True)
    cache.access(stride)  # evicts the dirty line
    assert cache.stats.writebacks == 1


def test_cache_hit_rate_property():
    cache = Cache(CacheConfig(size_bytes=1024, line_bytes=32, associativity=2))
    assert cache.stats.hit_rate == 0.0
    cache.access(0)
    cache.access(0)
    assert cache.stats.hit_rate == 0.5


# -- write-back path -------------------------------------------------------------

class RecordingBacking:
    """A backing-store stub that records every (address, is_write) access."""

    def __init__(self, latency=10):
        self.latency = latency
        self.calls = []

    def access_latency(self, address, is_write=False):
        self.calls.append((address, is_write))
        return self.latency


def direct_mapped(backing=None, sets=2):
    config = CacheConfig(
        name="WB", size_bytes=32 * sets, line_bytes=32, associativity=1,
        hit_latency=1, miss_penalty=0,
    )
    return Cache(config, backing=backing), 32 * sets  # (cache, same-set stride)


def test_dirty_eviction_charges_the_backing_store():
    backing = RecordingBacking(latency=10)
    cache, stride = direct_mapped(backing)
    first = cache.access(0, is_write=True)          # miss: fill read only
    assert backing.calls == [(0, False)]
    assert first == 1 + 10
    second = cache.access(stride)                   # evicts the dirty line
    assert cache.stats.writebacks == 1
    # The miss pays the fill *and* the victim writeback, in that order.
    assert backing.calls == [(0, False), (stride, False), (0, True)]
    assert second == 1 + 10 + 10


def test_clean_eviction_does_not_write_back():
    backing = RecordingBacking(latency=10)
    cache, stride = direct_mapped(backing)
    cache.access(0)
    latency = cache.access(stride)                  # evicts a clean line
    assert cache.stats.evictions == 1
    assert cache.stats.writebacks == 0
    assert (0, True) not in backing.calls
    assert latency == 1 + 10


def test_writeback_without_backing_is_counted_but_free():
    cache, stride = direct_mapped(backing=None)
    cache.access(0, is_write=True)
    latency = cache.access(stride)
    assert cache.stats.writebacks == 1
    assert latency == 1                             # nothing below to charge


def test_miss_cycles_accumulate_the_full_miss_price():
    backing = RecordingBacking(latency=10)
    cache, stride = direct_mapped(backing)
    cache.access(0, is_write=True)                  # 11
    cache.access(stride)                            # 11 + 10 writeback
    cache.access(stride)                            # hit: charges nothing
    assert cache.stats.miss_cycles == 11 + 21
    assert cache.stats.as_dict()["miss_cycles"] == 32


def test_write_hit_refreshes_lru_recency():
    # Mixed read/write sequence in one 2-way set: the write to A must make
    # A most-recently-used, so the next conflict evicts B, not A.
    config = CacheConfig(size_bytes=64, line_bytes=32, associativity=2,
                         hit_latency=1, miss_penalty=0)
    cache = Cache(config)
    stride = 32 * config.num_sets
    a, b, c = 0, stride, 2 * stride
    cache.access(a)
    cache.access(b)                                 # LRU order now: A, B(MRU)
    cache.access(a, is_write=True)                  # write hit: A becomes MRU
    cache.access(c)                                 # evicts B
    assert cache.contains(a) and not cache.contains(b)
    assert cache.stats.writebacks == 0              # B was clean
    cache.access(a)                                 # read hit keeps A dirty+MRU
    cache.access(b)                                 # evicts C (clean)
    assert cache.contains(a) and not cache.contains(c)
    assert cache.stats.writebacks == 0
    cache.access(c)                                 # evicts A -> dirty writeback
    assert cache.stats.writebacks == 1


def test_l1_writeback_lands_in_the_l2_not_in_memory():
    # Chained levels: a dirty L1 victim is written into the L2 (dirtying
    # the line there); only an L2 eviction pushes it towards memory.
    l2 = Cache(CacheConfig(name="L2", size_bytes=128, line_bytes=32,
                           associativity=2, hit_latency=4, miss_penalty=0),
               backing=RecordingBacking(latency=30))
    l1, stride = direct_mapped(backing=l2)
    l1.access(0, is_write=True)                     # L1+L2 miss, fill through L2
    assert l2.stats.misses == 1
    l1.access(stride)                               # dirty eviction -> L2 write hit
    assert l1.stats.writebacks == 1
    assert l2.stats.hits == 1 and l2.stats.accesses == 3
    assert l2.stats.writebacks == 0                 # still resident in L2


# -- memory system -----------------------------------------------------------------

def test_memory_system_functional_interface():
    system = MemorySystem()
    system.write_word(0x300, 99)
    assert system.read_word(0x300) == 99


def test_memory_system_latencies_hit_vs_miss():
    system = MemorySystem(MemorySystemConfig(memory_latency=20))
    miss = system.data_delay(0x1000)
    hit = system.data_delay(0x1000)
    assert miss > hit
    assert hit == system.config.dcache.hit_latency


def test_memory_system_statistics_structure():
    system = MemorySystem()
    system.instruction_delay(0)
    system.data_delay(0, is_write=True)
    stats = system.statistics()
    assert stats["icache"].accesses == 1
    assert stats["dcache"].accesses == 1
    assert "l2" not in stats
    summary = system.statistics_summary()
    assert summary["l2"] is None
    assert summary["dcache"]["accesses"] == 1


def test_memory_system_config_validation():
    with pytest.raises(ValueError, match="memory latency"):
        MemorySystemConfig(memory_latency=-1)
    with pytest.raises(ValueError, match="l2"):
        MemorySystemConfig(l2="not-a-config")
    with pytest.raises(ValueError, match="unified"):
        MemorySystemConfig(
            unified_l1=True,
            dcache=CacheConfig(name="D$", size_bytes=1024, associativity=2),
        )


def small_hierarchy(l2=True):
    small = dict(size_bytes=512, line_bytes=32, associativity=2,
                 hit_latency=1, miss_penalty=0)
    return MemorySystemConfig(
        icache=CacheConfig(name="I$", **small),
        dcache=CacheConfig(name="D$", **small),
        l2=CacheConfig(name="L2", size_bytes=4096, line_bytes=32,
                       associativity=4, hit_latency=6, miss_penalty=0)
        if l2 else None,
        memory_latency=30,
    )


def test_l2_serves_l1_capacity_misses_cheaper_than_memory():
    system = MemorySystem(small_hierarchy())
    stride = 32 * system.dcache.config.num_sets
    addresses = [i * stride for i in range(3)]      # one set, 2 ways: thrash
    for address in addresses:
        system.data_delay(address)                  # cold: through L2 to memory
    assert system.data_delay(addresses[0]) == 1 + 6  # evicted from L1, hits L2
    assert system.l2.stats.hits == 1
    direct = MemorySystem(small_hierarchy(l2=False))
    for address in addresses:
        direct.data_delay(address)
    assert direct.data_delay(addresses[0]) == 1 + 30  # same miss, memory-direct
    assert "l2" in system.statistics()
    assert system.statistics_summary()["l2"]["hits"] == 1


def test_unified_l1_shares_one_cache_between_fetch_and_data():
    level = CacheConfig(name="L1$", size_bytes=1024, associativity=2, miss_penalty=0)
    system = MemorySystem(
        MemorySystemConfig(icache=level, dcache=level, unified_l1=True)
    )
    assert system.icache is system.dcache
    system.instruction_delay(0x100)                 # warms the shared cache
    assert system.data_delay(0x100) == level.hit_latency
    assert system.statistics()["icache"].accesses == 2
    assert system.statistics_summary()["unified_l1"] is True


def test_reset_statistics_keeps_lines_warm_but_reset_colds_them():
    system = MemorySystem()
    miss = system.data_delay(0x1000)
    system.reset_statistics()
    assert system.statistics()["dcache"].accesses == 0
    assert system.dcache.contains(0x1000)           # counters only: still warm
    assert system.data_delay(0x1000) < miss
    system.reset()
    assert not system.dcache.contains(0x1000)       # full reset: cold tags
    assert system.data_delay(0x1000) == miss
    assert system.statistics()["dcache"].misses == 1


# -- branch predictors -----------------------------------------------------------

def test_static_predictors():
    not_taken = StaticNotTakenPredictor()
    assert not_taken.predict(0) is False
    assert not_taken.record(0x10, True) is False  # mispredicted
    assert not_taken.mispredictions == 1


def test_btb_miss_then_learn_target():
    btb = BranchTargetBuffer(entries=8)
    hit, taken, target = btb.lookup(0x100)
    assert not hit
    btb.update(0x100, True, 0x200)
    hit, taken, target = btb.lookup(0x100)
    assert hit and taken and target == 0x200


def test_btb_counter_hysteresis():
    btb = BranchTargetBuffer(entries=8, initial_counter=2)
    btb.update(0x80, True, 0x300)
    btb.update(0x80, False, 0x300)
    hit, taken, _ = btb.lookup(0x80)
    assert hit and taken  # one not-taken does not flip a strongly-taken entry
    btb.update(0x80, False, 0x300)
    btb.update(0x80, False, 0x300)
    assert btb.lookup(0x80)[1] is False


def test_btb_capacity_replacement():
    btb = BranchTargetBuffer(entries=2)
    btb.update(0x10, True, 0x100)
    btb.update(0x20, True, 0x200)
    btb.update(0x30, True, 0x300)
    assert len(btb.entries) == 2
