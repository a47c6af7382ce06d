"""The generated backend's in-process module memo.

The contract (see ``repro/codegen/cache.py``):

* a cold build emits and executes the module source; a rebuild of the
  same model in the same process is a memo hit that re-emits nothing;
* the key is the net's structure digest (two-list places and hook
  templates included) plus the emit-relevant trace categories (pinned in
  ``test_codegen_trace.py``), so a net of a different structure never
  shares a module, while nets of one structure share one whatever their
  name or spec, and run-length knobs (``max_cycles``, ``stall_limit``)
  share one entry;
* every net is memoised, hand-built ones included;
* nothing is written to disk, whatever the environment says.
"""

import os

from repro.codegen import CODEGEN_CACHE, GeneratedEngine, ModuleCache, codegen_key
from repro.core.engine import EngineOptions
from repro.describe.elaborate import elaborate_net
from repro.processors import build_processor, get_spec

GENERATED = EngineOptions(backend="generated")


def fresh_net(model="arm7-mini"):
    net, _decoder, _core, _memory, _semantics = elaborate_net(get_spec(model))
    return net


# -- cold / warm lookups ---------------------------------------------------


def test_cold_build_emits_the_module():
    cache = ModuleCache()
    net = fresh_net()
    engine = GeneratedEngine(net, cache=cache)

    assert engine.codegen_status == "emitted"
    assert engine.module.__name__ == "repro_codegen_" + codegen_key(net, GENERATED)
    assert engine.source == engine.module.__source__
    assert cache.stats() == {"entries": 1, "emits": 1, "memory_hits": 0}


def test_second_build_in_process_hits_the_memory_memo():
    cache = ModuleCache()
    first = GeneratedEngine(fresh_net(), cache=cache)
    second = GeneratedEngine(fresh_net(), cache=cache)

    assert second.codegen_status == "memory"
    assert second.module is first.module
    assert cache.stats() == {"entries": 1, "emits": 1, "memory_hits": 1}


def test_clear_drops_modules_and_counters():
    cache = ModuleCache()
    GeneratedEngine(fresh_net(), cache=cache)
    cache.clear()
    assert cache.stats() == {"entries": 0, "emits": 0, "memory_hits": 0}
    assert GeneratedEngine(fresh_net(), cache=cache).codegen_status == "emitted"


def test_cleared_memo_re_emits_and_writes_nothing(tmp_path, monkeypatch):
    """The cache environment variables no longer reach the file system."""
    monkeypatch.setenv("REPRO_CODEGEN_CACHE", str(tmp_path / "cg"))
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    CODEGEN_CACHE.clear()
    try:
        build_processor("arm7-mini", backend="generated")
        CODEGEN_CACHE.clear()  # a new process: the memo is gone
        rebuilt = build_processor("arm7-mini", backend="generated")

        assert rebuilt.engine.codegen_status == "emitted"
        assert CODEGEN_CACHE.emits == 1
        assert os.listdir(str(tmp_path)) == []
    finally:
        CODEGEN_CACHE.clear()


# -- the key ---------------------------------------------------------------


def test_key_ignores_the_model_name_and_spec_fingerprint():
    net_a, net_b = fresh_net(), fresh_net()
    net_a.spec_fingerprint, net_b.spec_fingerprint = "fp-a", "fp-b"
    net_b.name = "another-model"
    assert codegen_key(net_a, GENERATED) == codegen_key(net_b, GENERATED)


def test_key_depends_on_the_structure():
    mutated = fresh_net()
    mutated.transitions[-1].priority += 1
    assert codegen_key(mutated, GENERATED) != codegen_key(fresh_net(), GENERATED)


def test_digest_records_a_hook_that_appears():
    from repro.codegen.runtime import structure_digest

    net = fresh_net()
    before = structure_digest(net)
    transition = next(t for t in net.transitions if t.guard is None)
    transition.guard = lambda t, ctx: True
    # An opaque guard is called where no call was emitted before.
    assert structure_digest(net) != before


def test_digest_records_a_place_marked_two_list():
    from repro.codegen.runtime import structure_digest

    net = fresh_net()
    before = structure_digest(net)
    place = next(p for p in net.places.values() if not p.two_list)
    place.two_list = True
    # The module binds the place's pending list and commits it each cycle.
    assert structure_digest(net) != before


def test_key_ignores_run_length_knobs():
    net = fresh_net()
    base = codegen_key(net, GENERATED)
    assert codegen_key(net, EngineOptions(backend="generated", max_cycles=123)) == base
    assert codegen_key(net, EngineOptions(backend="generated", stall_limit=7)) == base


# -- sharing by structure ----------------------------------------------------


def test_another_structure_gets_its_own_module():
    cache = ModuleCache()
    first = GeneratedEngine(fresh_net("arm7-mini"), cache=cache)
    engine = GeneratedEngine(fresh_net("strongarm"), cache=cache)

    assert engine.codegen_status == "emitted"
    assert engine.module is not first.module
    # The first entry is untouched.
    rebuilt = GeneratedEngine(fresh_net("arm7-mini"), cache=cache)
    assert rebuilt.codegen_status == "memory"
    assert rebuilt.module is first.module


def test_models_of_one_structure_share_a_module():
    """The 12 registered models fall into 7 structures: strongarm with its
    -l2 and small-cache variants (they differ in the memory hierarchy
    alone), xscale with xscale-l2, and each other model on its own."""
    from repro.processors import processor_names

    cache = ModuleCache()
    engines = {name: GeneratedEngine(fresh_net(name), cache=cache) for name in processor_names()}

    assert len(engines) == 12
    assert cache.stats() == {"entries": 7, "emits": 7, "memory_hits": 5}
    for variant in ("strongarm-l2", "strongarm-c512", "strongarm-c2k", "strongarm-c8k"):
        assert engines[variant].module is engines["strongarm"].module
    assert engines["xscale-l2"].module is engines["xscale"].module
    assert not any(name in engine.source for name, engine in engines.items())


def test_net_without_fingerprint_is_memoised():
    cache = ModuleCache()
    net = fresh_net()
    net.spec_fingerprint = None

    engine = GeneratedEngine(net, cache=cache)
    rebuilt = GeneratedEngine(fresh_net(), cache=cache)

    assert engine.codegen_status == "emitted"
    assert rebuilt.codegen_status == "memory"
    assert rebuilt.module is engine.module
