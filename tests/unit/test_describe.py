"""Unit tests for the declarative description layer (``repro.describe``)."""

import pytest

from repro.core.exceptions import UnknownNameError
from repro.core.scheduler import SCHEDULE_CACHE
from repro.describe import (
    CacheLevelSpec,
    FetchSpec,
    HazardSpec,
    MemorySpec,
    OpClassPathSpec,
    PipelineSpec,
    SpecError,
    StageSpec,
    TransitionSpec,
    build_memory_config,
    elaborate,
    linear_path,
)
from repro.processors import (
    build_processor,
    get_spec,
    processor_names,
    strongarm_spec,
    supported_kernels,
    xscale_spec,
)
from repro.workloads import get_workload, workload_names


def tiny_spec(**overrides):
    """A minimal valid alu+system spec used by the validation tests."""
    fields = dict(
        name="Tiny",
        stages=(StageSpec("S1"), StageSpec("S2")),
        paths=(
            linear_path(
                "alu", ("S1", "S2"),
                hooks={"S2": ("alu.issue", "alu.execute"), "end": "alu.writeback"},
            ),
            linear_path("system", ("S1", "S2"), hooks={"S2": "system.issue", "end": "system.retire"}),
        ),
        hazards=HazardSpec(forward_states=("S2",), front_flush_stages=("S1",)),
        fetch=FetchSpec(style="sequential", capacity_stage="S1"),
    )
    fields.update(overrides)
    return PipelineSpec(**fields)


# -- spec validation ----------------------------------------------------------


def test_valid_spec_passes_validation():
    assert tiny_spec().validate()


def test_unknown_stage_in_path_is_rejected():
    bad = tiny_spec(
        paths=(linear_path("alu", ("S1", "S9"), hooks={"end": "alu.writeback"}),)
    )
    with pytest.raises(SpecError, match="unknown stage 'S9'"):
        bad.validate()


def test_duplicate_transition_names_are_rejected():
    path = linear_path("alu", ("S1", "S2"))
    bad = tiny_spec(
        paths=(
            OpClassPathSpec(
                opclass="alu",
                stages=path.stages,
                transitions=path.transitions + (path.transitions[0],),
            ),
        )
    )
    with pytest.raises(SpecError, match="duplicate transition name"):
        bad.validate()


def test_unknown_place_reference_is_rejected():
    bad = tiny_spec(
        paths=(
            linear_path("alu", ("S1", "S2")),
            OpClassPathSpec(
                opclass="system",
                stages=("S1",),
                transitions=(
                    # Consumes from a place key that does not exist.
                    TransitionSpec("system.go", "S1", "end", consumes=("nowhere",)),
                ),
            ),
        )
    )
    with pytest.raises(SpecError, match="unknown place 'nowhere'"):
        bad.validate()


def test_transition_name_colliding_with_fetch_is_rejected():
    # Transition names key the statistics counters and the generation
    # caches; a path transition reusing the fetch transition's name would
    # make the cached blueprints ambiguous.
    bad = tiny_spec(
        paths=(
            OpClassPathSpec(
                opclass="alu",
                stages=("S1",),
                transitions=(TransitionSpec("fetch", "S1", "end", hooks="alu.writeback"),),
            ),
        )
    )
    with pytest.raises(SpecError, match="duplicate transition name 'fetch'"):
        bad.validate()


def test_btb_fetch_requires_btb_predictor():
    bad = tiny_spec(fetch=FetchSpec(style="btb", capacity_stage="S1"))
    with pytest.raises(SpecError, match='requires predictor kind "btb"'):
        bad.validate()


def test_misspelled_forward_state_is_rejected():
    bad = tiny_spec(hazards=HazardSpec(forward_states=("S2X",), front_flush_stages=("S1",)))
    with pytest.raises(SpecError, match="forward state 'S2X'"):
        bad.validate()


def test_branch_resolve_hook_requires_btb_predictor():
    bad = tiny_spec(
        paths=(
            linear_path(
                "branch", ("S1", "S2"),
                hooks={"S2": "branch.resolve", "end": "branch.link_writeback"},
            ),
            linear_path("system", ("S1", "S2"), hooks={"S2": "system.issue", "end": "system.retire"}),
        )
    )
    with pytest.raises(SpecError, match="branch target"):
        bad.validate()


def test_mutated_net_does_not_reuse_a_stale_cached_schedule():
    # The caches key on the net's structure; mutating the elaborated net
    # must fall back to fresh derivation instead of rehydrating the clean
    # build's blueprint.
    from repro.core import EngineOptions, generate_simulator
    from repro.describe import elaborate_net

    spec = tiny_spec()
    elaborate(spec)  # populate the caches for this structure

    net, _, _, _, semantics = elaborate_net(spec)
    subnet = net.subnets["alu"]
    net.add_transition(
        "alu.extra", subnet,
        source=net.place("alu.S2"), target=net.place("alu.end"),
        action=semantics.hook("alu.writeback").action,
    )
    engine, report = generate_simulator(net, EngineOptions(backend="generated"))
    assert report.schedule_cache == "miss"
    extra = [t for t in engine.schedule.transitions_for(net.place("alu.S2"), "alu")]
    assert any(t.name == "alu.extra" for t in extra)


def test_name_preserving_mutation_also_invalidates_cached_schedule():
    # Changing a transition's priority keeps every name intact but changes
    # dispatch ordering; the structure signature must catch it.
    from repro.core import EngineOptions, generate_simulator
    from repro.describe import elaborate_net

    spec = tiny_spec()
    elaborate(spec, backend="generated")  # populate the caches

    net, _, _, _, _ = elaborate_net(spec)
    net.transitions[-1].priority += 1
    _, report = generate_simulator(net, EngineOptions(backend="generated"))
    assert report.schedule_cache == "miss"
    # The structure digest is part of the codegen key: the mutated net gets
    # a module of its own.
    assert report.codegen_cache == "emitted"


def test_elaborate_rejects_non_spec():
    with pytest.raises(TypeError):
        elaborate(object())


# -- memory hierarchy spec -----------------------------------------------------


def test_default_memory_spec_matches_legacy_memory_config():
    # A spec that does not mention memory must elaborate to exactly the
    # hierarchy every pre-existing model was hard-wired with.
    from repro.memory import MemorySystemConfig

    assert build_memory_config(MemorySpec()) == MemorySystemConfig()


def test_bad_cache_geometry_is_rejected_at_spec_validation():
    for level in (
        CacheLevelSpec(associativity=0),
        CacheLevelSpec(associativity=-4),
        CacheLevelSpec(hit_latency=-1),
        CacheLevelSpec(miss_penalty=-2),
        CacheLevelSpec(line_bytes=24),
        CacheLevelSpec(size_bytes=1000, line_bytes=32, associativity=4),
    ):
        bad = tiny_spec(memory=MemorySpec(l1_data=level))
        with pytest.raises(SpecError):
            bad.validate()


def test_negative_memory_latency_is_rejected():
    with pytest.raises(SpecError, match="memory latency"):
        tiny_spec(memory=MemorySpec(memory_latency=-1)).validate()


def test_unified_l1_rejects_customised_split_caches():
    bad = MemorySpec(
        l1_unified=CacheLevelSpec(name="L1$"),
        l1_data=CacheLevelSpec(name="D$", size_bytes=1024, associativity=2),
    )
    with pytest.raises(SpecError, match="unified L1"):
        tiny_spec(memory=bad).validate()


def test_unified_l1_and_l2_elaborate_into_the_hierarchy():
    spec = tiny_spec(
        memory=MemorySpec(
            l1_unified=CacheLevelSpec(name="L1$", size_bytes=1024, associativity=2),
            l2=CacheLevelSpec(name="L2", size_bytes=8 * 1024, associativity=4, hit_latency=5),
        )
    )
    processor = elaborate(spec)
    memory = processor.memory
    assert memory.icache is memory.dcache
    assert memory.l2 is not None and memory.l2.config.hit_latency == 5
    hierarchy = processor.generation_report.memory_hierarchy
    assert [level["role"] for level in hierarchy] == ["l1-unified", "l2", "memory"]


def test_memory_spec_participates_in_the_fingerprint():
    base = tiny_spec()
    explicit_default = tiny_spec(memory=MemorySpec())
    smaller = tiny_spec(
        memory=MemorySpec(l1_data=CacheLevelSpec(name="D$", size_bytes=1024, associativity=2))
    )
    with_l2 = tiny_spec(memory=MemorySpec(l2=CacheLevelSpec(name="L2")))
    assert base.fingerprint() == explicit_default.fingerprint()
    assert base.fingerprint() != smaller.fingerprint()
    assert base.fingerprint() != with_l2.fingerprint()
    assert smaller.fingerprint() != with_l2.fingerprint()


def test_explicit_memory_config_still_overrides_the_spec():
    # The escape hatch: a runtime MemorySystemConfig wins over spec memory.
    from repro.memory import CacheConfig, MemorySystemConfig

    config = MemorySystemConfig(
        dcache=CacheConfig(name="D$", size_bytes=1024, associativity=2, miss_penalty=0)
    )
    processor = elaborate(tiny_spec(), memory_config=config)
    assert processor.memory.dcache.config.size_bytes == 1024


# -- fingerprints and generation caches ---------------------------------------


def test_fingerprint_is_stable_across_instances():
    assert strongarm_spec().fingerprint() == strongarm_spec().fingerprint()
    assert xscale_spec().fingerprint() == xscale_spec().fingerprint()


def test_fingerprint_distinguishes_models_and_edits():
    fingerprints = {get_spec(name).fingerprint() for name in processor_names()}
    assert len(fingerprints) == len(processor_names())
    # Any declarative edit must change the hash.
    base = tiny_spec()
    deeper = tiny_spec(stages=(StageSpec("S1"), StageSpec("S2", delay=2)))
    assert base.fingerprint() != deeper.fingerprint()


def test_rebuilding_a_spec_hits_the_generation_caches():
    spec = tiny_spec()
    first = elaborate(spec, backend="generated")
    again = elaborate(spec, backend="generated")
    assert first.generation_report.spec_fingerprint == spec.fingerprint()
    assert again.generation_report.schedule_cache == "hit"
    assert again.generation_report.codegen_cache == "memory"
    # The caches expose hit/miss counters for the benchmark harness.
    assert SCHEDULE_CACHE.stats()["hits"] >= 1


def test_cached_rebuild_is_bit_identical():
    workload = get_workload("crc", scale=1)
    spec = strongarm_spec()
    runs = []
    for _ in range(2):
        processor = elaborate(spec, backend="generated")
        processor.load_program(workload.program)
        stats = processor.run()
        runs.append(
            (stats.cycles, stats.instructions, dict(stats.transition_firings),
             processor.register(0))
        )
    assert runs[0] == runs[1]


def test_hand_built_nets_carry_no_fingerprint():
    from repro.core import RCPN

    net = RCPN("handmade")
    assert getattr(net, "spec_fingerprint", None) is None


def test_custom_semantics_keep_the_spec_fingerprint():
    """The fingerprint is a report of the spec; the caches never read it."""
    from repro.describe import elaborate_net
    from repro.describe.semantics import ArmSemantics

    class Custom(ArmSemantics):
        pass

    spec = tiny_spec()
    net = elaborate_net(spec, semantics_class=Custom)[0]
    assert net.spec_fingerprint == spec.fingerprint()


# -- elaborated structure ------------------------------------------------------


def test_elaborated_strongarm_structure_matches_spec():
    spec = strongarm_spec()
    processor = build_processor("strongarm")
    net = processor.net
    assert net.spec_fingerprint == spec.fingerprint()
    assert net.spec is not None and net.spec.name == "StrongARM"
    # One sub-net per operation-class path plus the fetch sub-net.
    assert set(net.subnets) == {"fetch"} | {p.subnet_name for p in spec.paths}
    declared = {t.name for path in spec.paths for t in path.transitions}
    declared.add(spec.fetch.name)
    assert {t.name for t in net.transitions} == declared


def test_tiny_spec_elaborates_and_runs():
    processor = elaborate(tiny_spec())
    # A spec-built model is a full Processor: it can run an ALU-only program.
    from repro.isa.assembler import assemble

    program = assemble(
        """
        main:
            mov r0, #21
            add r0, r0, r0
            halt
        """
    )
    processor.load_program(program)
    stats = processor.run(max_cycles=1_000)
    assert stats.finish_reason == "halt"
    assert processor.register(0) == 42


# -- registries ----------------------------------------------------------------


def test_registry_exposes_the_shipped_models():
    names = processor_names()
    assert len(names) >= 12
    for required in (
        "example",
        "strongarm",
        "xscale",
        "arm7-mini",
        "xscale-deep",
        "strongarm-ds",
        "xscale-ds",
        "strongarm-l2",
        "xscale-l2",
        "strongarm-c512",
        "strongarm-c2k",
        "strongarm-c8k",
    ):
        assert required in names


def test_unknown_processor_name_lists_valid_names():
    with pytest.raises(UnknownNameError) as excinfo:
        build_processor("strongarn")
    message = str(excinfo.value)
    assert "strongarn" in message
    for name in processor_names():
        assert name in message
    # It is still a KeyError, for callers catching the narrow type.
    assert isinstance(excinfo.value, KeyError)


def test_unknown_workload_name_lists_valid_names():
    with pytest.raises(UnknownNameError) as excinfo:
        get_workload("sha256")
    message = str(excinfo.value)
    assert "sha256" in message
    for name in workload_names():
        assert name in message


def test_supported_kernels_respects_isa_subsets():
    assert supported_kernels("strongarm", workload_names()) == workload_names()
    example = supported_kernels("example", workload_names())
    assert set(example) == {"blowfish", "compress", "crc"}


def test_registry_specs_produce_runnable_processors():
    workload = get_workload("crc", scale=1)
    for name in processor_names():
        if "crc" not in supported_kernels(name, workload_names()):
            continue
        processor = build_processor(name)
        processor.load_program(workload.program)
        stats = processor.run(max_cycles=2_000_000)
        assert stats.finish_reason == "halt", name
