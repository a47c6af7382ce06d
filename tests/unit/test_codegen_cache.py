"""Cold/warm/invalidation behaviour of the generated backend's module cache.

The contract (see ``repro/codegen/cache.py``):

* a cold build emits the module source and atomically writes it to
  ``<dir>/<key>.py``;
* warm builds load without re-emitting — from the in-process memo within
  one process, from disk across processes (simulated here with a fresh
  :class:`ModuleCache` on the same directory);
* the key folds in the spec fingerprint, the emit-relevant engine
  options and the ``repro`` version, so changing any of them misses the
  old entry — while run-length knobs (``max_cycles``/``stall_limit``)
  deliberately do *not* invalidate;
* corrupted, truncated or foreign cache files fall back to a fresh
  emission that overwrites them; an unwritable directory degrades to
  emit-per-process.  Neither ever raises.
"""

import os

import repro
from repro.codegen import (
    CODEGEN_CACHE,
    GeneratedEngine,
    ModuleCache,
    codegen_key,
    default_cache_dir,
)
from repro.core.engine import EngineOptions
from repro.describe.elaborate import elaborate_net
from repro.processors import build_processor, get_spec, supported_kernels
from repro.workloads import get_workload, workload_names

GENERATED = EngineOptions(backend="generated")


def fresh_net(model="arm7-mini"):
    net, _decoder, _core, _memory, _semantics = elaborate_net(get_spec(model))
    return net


# -- cold / warm lookups ---------------------------------------------------


def test_cold_build_emits_and_writes_source(tmp_path):
    cache = ModuleCache(directory=str(tmp_path))
    engine = GeneratedEngine(fresh_net(), cache=cache)

    assert engine.codegen_status == "emitted"
    assert cache.stats()["emits"] == 1
    assert engine.source_path == cache.path_for(engine.module.CODEGEN_KEY)
    assert os.path.isfile(engine.source_path)
    with open(engine.source_path, encoding="utf-8") as handle:
        assert handle.read() == engine.source
    # No tempfile litter from the atomic write.
    assert os.listdir(str(tmp_path)) == [os.path.basename(engine.source_path)]


def test_second_build_in_process_hits_the_memory_memo(tmp_path):
    cache = ModuleCache(directory=str(tmp_path))
    first = GeneratedEngine(fresh_net(), cache=cache)
    second = GeneratedEngine(fresh_net(), cache=cache)

    assert second.codegen_status == "memory"
    assert second.module is first.module
    assert cache.stats()["emits"] == 1
    assert cache.stats()["memory_hits"] == 1


def test_warm_process_loads_from_disk_with_zero_emissions(tmp_path):
    cold = ModuleCache(directory=str(tmp_path))
    first = GeneratedEngine(fresh_net(), cache=cold)

    # A fresh ModuleCache on the same directory models a new process.
    warm = ModuleCache(directory=str(tmp_path))
    second = GeneratedEngine(fresh_net(), cache=warm)

    assert second.codegen_status == "disk"
    assert second.source == first.source
    assert warm.stats() == {
        "entries": 1,
        "emits": 0,
        "memory_hits": 0,
        "disk_hits": 1,
        "invalid": 0,
    }


def test_disk_loaded_module_reproduces_the_cold_run(tmp_path, monkeypatch):
    """End-to-end warm start through the env-var override and the facade."""
    monkeypatch.setenv("REPRO_CODEGEN_CACHE", str(tmp_path / "cg"))
    assert default_cache_dir() == str(tmp_path / "cg")
    CODEGEN_CACHE.clear()
    kernel = supported_kernels("arm7-mini", workload_names())[0]
    workload = get_workload(kernel, scale=1)

    def run():
        processor = build_processor("arm7-mini", backend="generated")
        processor.load_program(workload.program)
        stats = processor.run(max_cycles=2_000_000)
        return processor.engine, stats

    cold_engine, cold = run()
    assert cold_engine.codegen_status == "emitted"
    CODEGEN_CACHE.clear()  # new-process simulation: memo gone, disk survives
    warm_engine, warm = run()
    assert warm_engine.codegen_status == "disk"

    assert (warm.cycles, warm.instructions, warm.stalls, warm.finish_reason) == (
        cold.cycles,
        cold.instructions,
        cold.stalls,
        cold.finish_reason,
    )
    CODEGEN_CACHE.clear()  # do not leak tmp-dir-backed entries to other tests


# -- key invalidation ------------------------------------------------------


def test_key_depends_on_the_spec_fingerprint():
    assert codegen_key("fp-a", GENERATED) != codegen_key("fp-b", GENERATED)


def test_key_depends_on_emit_relevant_options():
    base = codegen_key("fp", GENERATED)
    changed = [
        EngineOptions(backend="generated", use_sorted_transitions=False),
        EngineOptions(backend="generated", two_list_everywhere=True),
        EngineOptions(backend="generated", collect_utilization=True),
    ]
    keys = [codegen_key("fp", options) for options in changed]
    assert base not in keys
    assert len(set(keys)) == len(keys)


def test_key_ignores_run_length_knobs():
    base = codegen_key("fp", GENERATED)
    assert codegen_key("fp", EngineOptions(backend="generated", max_cycles=123)) == base
    assert codegen_key("fp", EngineOptions(backend="generated", stall_limit=7)) == base


def test_key_depends_on_the_repro_version(monkeypatch):
    base = codegen_key("fp", GENERATED)
    monkeypatch.setattr(repro, "__version__", repro.__version__ + "+codegen-test")
    assert codegen_key("fp", GENERATED) != base


# -- robustness against bad cache files ------------------------------------


def poison_and_rebuild(tmp_path, content):
    """Cold-build, overwrite the cache file with ``content``, rebuild warm."""
    cold = ModuleCache(directory=str(tmp_path))
    engine = GeneratedEngine(fresh_net(), cache=cold)
    with open(engine.source_path, "w", encoding="utf-8") as handle:
        handle.write(content(engine.source))
    warm = ModuleCache(directory=str(tmp_path))
    rebuilt = GeneratedEngine(fresh_net(), cache=warm)
    return engine, rebuilt, warm


def test_corrupted_cache_file_falls_back_to_fresh_emission(tmp_path):
    engine, rebuilt, warm = poison_and_rebuild(tmp_path, lambda _: "def broken(:\n")

    assert rebuilt.codegen_status == "emitted"
    assert warm.stats()["invalid"] == 1
    assert warm.stats()["emits"] == 1
    # The bad file was overwritten with the fresh emission.
    with open(engine.source_path, encoding="utf-8") as handle:
        assert handle.read() == rebuilt.source


def test_truncated_cache_file_falls_back_to_fresh_emission(tmp_path):
    _, rebuilt, warm = poison_and_rebuild(
        tmp_path, lambda source: source[: len(source) // 2]
    )
    assert rebuilt.codegen_status == "emitted"
    assert warm.stats()["invalid"] == 1


def test_cache_file_with_foreign_key_falls_back_to_fresh_emission(tmp_path):
    """A syntactically valid module under the wrong key must be rejected."""
    foreign = (
        "CODEGEN_KEY = 'not-this-key'\n"
        "def make_step(rt):\n"
        "    return lambda cycle, stats: 0\n"
    )
    _, rebuilt, warm = poison_and_rebuild(tmp_path, lambda _: foreign)
    assert rebuilt.codegen_status == "emitted"
    assert warm.stats()["invalid"] == 1


def test_unwritable_cache_directory_degrades_to_emit_per_process(tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("a file where the cache directory should go")
    directory = str(blocker / "codegen")  # makedirs/open fail: NotADirectoryError

    first = GeneratedEngine(fresh_net(), cache=ModuleCache(directory=directory))
    assert first.codegen_status == "emitted"
    # Nothing reached disk, so a second "process" emits again — degraded,
    # never broken.
    second = GeneratedEngine(fresh_net(), cache=ModuleCache(directory=directory))
    assert second.codegen_status == "emitted"


# -- staleness and the uncached path ---------------------------------------


def test_mismatched_cached_module_is_replaced_as_stale(tmp_path):
    """A cached module for a *different structure* under this key re-emits.

    This models a net mutated after elaboration (poisoning the
    fingerprint -> structure mapping): ``build_runtime`` detects the
    structure-digest mismatch and the engine overwrites the entry.
    """
    cache = ModuleCache(directory=str(tmp_path))
    donor = fresh_net("arm7-mini")
    first = GeneratedEngine(donor, cache=cache)

    impostor = fresh_net("strongarm")
    impostor.spec_fingerprint = donor.spec_fingerprint
    engine = GeneratedEngine(impostor, cache=cache)

    assert engine.codegen_status == "stale"
    assert engine.module is not first.module
    assert engine.module.STRUCTURE_DIGEST != first.module.STRUCTURE_DIGEST
    # The overwritten entry now describes the impostor's structure.
    with open(cache.path_for(engine.module.CODEGEN_KEY), encoding="utf-8") as handle:
        assert handle.read() == engine.source


def test_net_without_fingerprint_never_touches_the_cache(tmp_path):
    cache = ModuleCache(directory=str(tmp_path))
    net = fresh_net()
    net.spec_fingerprint = None

    engine = GeneratedEngine(net, cache=cache)

    assert engine.codegen_status == "uncached"
    assert engine.source_path is None
    assert engine.source  # still carries the emitted module text
    assert cache.stats() == {
        "entries": 0,
        "emits": 0,
        "memory_hits": 0,
        "disk_hits": 0,
        "invalid": 0,
    }
    assert os.listdir(str(tmp_path)) == []
