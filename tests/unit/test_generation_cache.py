"""The generation-time caches: LRU order, mutation guard, report counters.

These pin the contract the campaign subsystem and the benchmark harness
lean on: rebuilding a spec-defined model is cheap because the static
schedule and the emitted module are served from in-process caches keyed on
the net's structure alone — and those caches must evict
least-recently-used, must never replay analysis of another structure
against a mutated net, and must report hit/miss through
:class:`~repro.core.generator.GenerationReport`.
"""

from repro.codegen import CODEGEN_CACHE
from repro.core.scheduler import SCHEDULE_CACHE, GenerationCache, StaticSchedule
from repro.describe import elaborate_net
from repro.processors import build_processor, get_spec, strongarm_spec


class TestGenerationCacheLRU:
    def test_evicts_least_recently_used_beyond_max_entries(self):
        cache = GenerationCache(max_entries=2)
        cache.store("a", "blueprint-a")
        cache.store("b", "blueprint-b")
        cache.store("c", "blueprint-c")  # evicts "a" (oldest)
        assert cache.lookup("a") is None
        assert cache.lookup("b") == "blueprint-b"
        assert cache.lookup("c") == "blueprint-c"

    def test_lookup_refreshes_recency(self):
        cache = GenerationCache(max_entries=2)
        cache.store("a", "blueprint-a")
        cache.store("b", "blueprint-b")
        assert cache.lookup("a") == "blueprint-a"  # "a" is now most recent
        cache.store("c", "blueprint-c")  # evicts "b", not "a"
        assert cache.lookup("b") is None
        assert cache.lookup("a") == "blueprint-a"
        assert cache.lookup("c") == "blueprint-c"

    def test_store_of_existing_key_does_not_evict(self):
        cache = GenerationCache(max_entries=2)
        cache.store("a", "blueprint-a")
        cache.store("b", "blueprint-b")
        cache.store("b", "blueprint-b2")  # overwrite, not a new entry
        assert cache.stats()["entries"] == 2
        assert cache.lookup("a") == "blueprint-a"
        assert cache.lookup("b") == "blueprint-b2"

    def test_hit_and_miss_counters(self):
        cache = GenerationCache(max_entries=4)
        cache.store("a", "blueprint-a")
        cache.lookup("a")
        cache.lookup("a")
        cache.lookup("missing")
        stats = cache.stats()
        assert stats["hits"] == 2
        assert stats["misses"] == 1
        cache.clear()
        assert cache.stats() == {"entries": 0, "hits": 0, "misses": 0}


class TestStructureSignatureGuard:
    def test_mutated_net_is_not_served_a_stale_blueprint(self):
        SCHEDULE_CACHE.clear()
        net, _, _, _, _ = elaborate_net(strongarm_spec())
        first = StaticSchedule(net)
        assert not first.from_cache  # cache was empty

        # Same spec, same fingerprint — but the net is mutated after
        # elaboration, so rehydrating the cached blueprint would replay
        # analysis of a structure that no longer exists.
        mutated, _, _, _, _ = elaborate_net(strongarm_spec())
        mutated.transitions[0].priority += 17
        guarded = StaticSchedule(mutated)
        assert not guarded.from_cache

        # The mutated net stored an entry under its own signature; the
        # clean build's entry is untouched, so a clean rebuild hits it.
        clean, _, _, _, _ = elaborate_net(strongarm_spec())
        assert StaticSchedule(clean).from_cache
        remutated, _, _, _, _ = elaborate_net(strongarm_spec())
        remutated.transitions[0].priority += 17
        assert StaticSchedule(remutated).from_cache

    def test_unmutated_rebuild_is_served_from_cache(self):
        SCHEDULE_CACHE.clear()
        net, _, _, _, _ = elaborate_net(strongarm_spec())
        StaticSchedule(net)
        rebuilt, _, _, _, _ = elaborate_net(strongarm_spec())
        assert StaticSchedule(rebuilt).from_cache


class TestGenerationReportCounters:
    def test_report_records_miss_then_hit_for_both_caches(self):
        SCHEDULE_CACHE.clear()
        CODEGEN_CACHE.clear()

        first = build_processor("arm7-mini", backend="generated").generation_report
        assert first.schedule_cache == "miss"
        assert first.codegen_cache == "emitted"
        assert SCHEDULE_CACHE.stats()["misses"] >= 1

        second = build_processor("arm7-mini", backend="generated").generation_report
        assert second.schedule_cache == "hit"
        assert second.codegen_cache == "memory"
        assert SCHEDULE_CACHE.stats()["hits"] >= 1
        assert second.summary()["spec_fingerprint"] == get_spec("arm7-mini").fingerprint()

    def test_hand_built_nets_report_miss_then_hit(self):
        from repro.core.engine import EngineOptions
        from repro.core.generator import generate_simulator
        from test_core_engine import make_linear_net

        SCHEDULE_CACHE.clear()
        CODEGEN_CACHE.clear()
        options = EngineOptions(backend="generated")

        _, first = generate_simulator(make_linear_net()[0], options)
        _, second = generate_simulator(make_linear_net()[0], options)

        assert first.spec is first.spec_fingerprint is None
        assert "spec_fingerprint" not in first.summary()
        assert (first.schedule_cache, first.codegen_cache) == ("miss", "emitted")
        assert (second.schedule_cache, second.codegen_cache) == ("hit", "memory")
