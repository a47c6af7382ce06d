"""Integration tests: the generated RCPN simulators against the references.

These are the repository's equivalent of the paper's implicit correctness
requirement: a cycle-accurate simulator must produce the same architectural
results as a functional simulation of the same binary, for every benchmark.
"""

import pytest

from repro.baseline import FunctionalSimulator, SimpleScalarLikeSimulator
from repro.core import EngineOptions
from repro.core.engine import ENGINE_BACKENDS
from repro.describe.elaborate import elaborate_net
from repro.describe.substrate import Processor
from repro.processors import (
    build_example_processor,
    build_strongarm_processor,
    build_xscale_processor,
    strongarm_spec,
)
from repro.workloads import get_workload, workload_names

KERNELS = workload_names()
FULL_ISA_MODELS = {
    "strongarm": build_strongarm_processor,
    "xscale": build_xscale_processor,
}


def functional_reference(workload):
    simulator = FunctionalSimulator()
    simulator.load_program(workload.program)
    stats = simulator.run()
    return simulator, stats


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("model", sorted(FULL_ISA_MODELS))
def test_rcpn_models_match_functional_architectural_state(model, kernel):
    workload = get_workload(kernel, scale=1)
    functional, fstats = functional_reference(workload)

    processor = FULL_ISA_MODELS[model]()
    processor.load_program(workload.program)
    stats = processor.run()

    assert stats.finish_reason == "halt"
    assert stats.instructions == fstats.instructions
    assert processor.register(0) == functional.register(0)


@pytest.mark.parametrize("kernel", ["crc", "compress", "blowfish"])
def test_example_model_matches_functional_on_supported_kernels(kernel):
    # The Figure 4/5 example model implements only the alu/mem/branch/system
    # classes; these three kernels use no multiply or block transfer.
    workload = get_workload(kernel, scale=1)
    functional, fstats = functional_reference(workload)
    processor = build_example_processor()
    processor.load_program(workload.program)
    stats = processor.run(max_cycles=2_000_000)
    assert stats.instructions == fstats.instructions
    assert processor.register(0) == functional.register(0)


@pytest.mark.parametrize("kernel", ["crc", "go"])
def test_rcpn_cpi_within_band_of_simplescalar_baseline(kernel):
    """Figure 11: the CPI of the generated simulator tracks the baseline."""
    workload = get_workload(kernel, scale=1)
    baseline = SimpleScalarLikeSimulator()
    baseline.load_program(workload.program)
    bstats = baseline.run()

    processor = build_strongarm_processor()
    processor.load_program(workload.program)
    rstats = processor.run()

    assert 1.0 <= bstats.cpi <= 4.0
    assert 1.0 <= rstats.cpi <= 4.0
    # The paper reports ~10% difference; allow a generous band here.
    assert rstats.cpi == pytest.approx(bstats.cpi, rel=0.5)


def test_xscale_deeper_pipeline_costs_more_cycles_than_strongarm():
    workload = get_workload("go", scale=1)
    results = {}
    for name, builder in FULL_ISA_MODELS.items():
        processor = builder()
        processor.load_program(workload.program)
        results[name] = processor.run().cpi
    assert results["xscale"] >= results["strongarm"]


def outcome(processor, stats):
    return (
        stats.cycles,
        stats.instructions,
        stats.stalls,
        stats.squashed,
        stats.generated_tokens,
        dict(stats.retired_by_class),
        dict(stats.transition_firings),
        processor.register(0),
    )


def test_engine_optimisations_do_not_change_simulated_behaviour():
    """Two-list storage off the feedback places is only slower (Section 4).

    Every place of an elaborated strongarm net is marked ``two_list``, after
    a clean build's module is memoised on ``generated``: the marked net must
    get a module of its own and simulate exactly what the clean one does.
    """
    program = get_workload("crc", scale=1).program
    for backend in ENGINE_BACKENDS:
        clean = build_strongarm_processor(backend=backend)
        clean.load_program(program)
        reference = outcome(clean, clean.run())
        # Every fetch after a word's first is a decode-cache hit.
        assert clean.decoder.hits > clean.decoder.misses

        net, decoder, core, memory, _semantics = elaborate_net(strongarm_spec())
        for place in net.places.values():
            place.two_list = True
        marked = Processor(net, decoder, core, memory, engine_options=EngineOptions(backend=backend))
        assert len(marked.engine.schedule.two_list_places) == len(net.places)
        marked.load_program(program)
        assert outcome(marked, marked.run()) == reference


def test_branch_heavy_kernel_exercises_reservation_stall_mechanism():
    workload = get_workload("crc", scale=1)
    processor = build_strongarm_processor()
    processor.load_program(workload.program)
    stats = processor.run()
    firings = stats.transition_firings
    assert firings["branch.taken"] > 0
    assert firings["branch.unstall"] == firings["branch.taken"]
    assert stats.squashed > 0


def test_cache_statistics_reported_by_generated_simulator():
    workload = get_workload("blowfish", scale=1)
    processor = build_xscale_processor()
    processor.load_program(workload.program)
    processor.run()
    cache_stats = processor.cache_statistics()
    assert cache_stats["dcache"].accesses > 0
    assert 0.5 <= cache_stats["dcache"].hit_rate <= 1.0


def test_strongarm_model_has_six_instruction_subnets():
    processor = build_strongarm_processor()
    instruction_subnets = [
        s for s in processor.net.subnets.values() if not s.is_instruction_independent
    ]
    assert len(instruction_subnets) == 6  # paper Section 5
    assert len(processor.net.operation_classes) == 6


def test_generation_report_for_models():
    for builder in (build_example_processor, build_strongarm_processor, build_xscale_processor):
        processor = builder()
        report = processor.generation_report
        assert report.dispatch_entries > 0
        assert report.generator_transitions
        assert len(report.place_order) == len(processor.net.places)
