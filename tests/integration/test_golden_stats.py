"""Golden-statistics regression test for the shipped processor models.

The numbers below were captured from the hand-wired StrongARM/XScale/example
models *before* they were rebuilt on the declarative description layer
(``repro.describe``).  The refactor is required to be bit-identical: any
change to cycle counts, retired-instruction counts, stall counts or the
architectural result is a modeling regression, not noise.

The golden rows run on both the interpreted reference engine and the
source-level generated backend (``repro.codegen``): an emitted module
that drifts from these absolute numbers is a codegen regression even if
it still agrees with the interpreter of the same build.  The traced
emission of the generated backend is checked against the same rows.
"""

import pytest

from repro.core.engine import EngineOptions
from repro.observe.trace import TraceConfig
from repro.processors import build_processor
from repro.workloads import get_workload

#: (model, kernel) -> (cycles, instructions, stalls, final r0); captured at
#: scale=1 from the seed models (PR 1 tree) on the interpreted backend.
GOLDEN = {
    ("strongarm", "adpcm"): (10146, 8072, 2634, 2282867342),
    ("strongarm", "blowfish"): (11534, 6776, 7540, 1638522846),
    ("strongarm", "compress"): (8184, 4760, 3948, 58384),
    ("strongarm", "crc"): (7403, 4479, 3106, 4223799965),
    ("strongarm", "g721"): (10012, 6107, 4738, 3462125290),
    ("strongarm", "go"): (24059, 13592, 13399, 1286),
    ("xscale", "adpcm"): (11562, 8072, 11482, 2282867342),
    ("xscale", "blowfish"): (12373, 6776, 17770, 1638522846),
    ("xscale", "compress"): (8634, 4760, 11162, 58384),
    ("xscale", "crc"): (7600, 4479, 8455, 4223799965),
    ("xscale", "g721"): (11097, 6107, 12578, 3462125290),
    ("xscale", "go"): (27834, 13592, 40565, 1286),
    ("example", "crc"): (7495, 4479, 2006, 4223799965),
    ("example", "compress"): (8730, 4760, 2894, 58384),
    ("example", "blowfish"): (11913, 6776, 4321, 1638522846),
    # Dual-issue variants (PR 4): captured on the interpreted backend at the
    # introduction of IssueSpec-driven multi-issue elaboration.
    ("strongarm-ds", "adpcm"): (8123, 8072, 13604, 2282867342),
    ("strongarm-ds", "blowfish"): (9378, 6776, 17402, 1638522846),
    ("strongarm-ds", "compress"): (6924, 4760, 11587, 58384),
    ("strongarm-ds", "crc"): (5710, 4479, 6120, 4223799965),
    ("strongarm-ds", "g721"): (7724, 6107, 15462, 3462125290),
    ("strongarm-ds", "go"): (21146, 13592, 42076, 1286),
    ("xscale-ds", "adpcm"): (10237, 8072, 46324, 2282867342),
    ("xscale-ds", "blowfish"): (10667, 6776, 50530, 1638522846),
    ("xscale-ds", "compress"): (6936, 4760, 30034, 58384),
    ("xscale-ds", "crc"): (6012, 4479, 22661, 4223799965),
    ("xscale-ds", "g721"): (9628, 6107, 47141, 3462125290),
    ("xscale-ds", "go"): (24439, 13592, 119280, 1286),
    # Memory-hierarchy variants (PR 5): captured on the interpreted backend
    # at the introduction of MemorySpec-driven elaboration.  The sweep
    # points degrade exactly where the working set overflows the L1
    # (blowfish/compress at 512 B); the -l2 rows pay a few extra cycles
    # for cold misses but serve capacity misses from the L2.
    ("strongarm-l2", "adpcm"): (10182, 8072, 2634, 2282867342),
    ("strongarm-l2", "blowfish"): (14078, 6776, 13990, 1638522846),
    ("strongarm-l2", "compress"): (8862, 4760, 5640, 58384),
    ("strongarm-l2", "crc"): (7445, 4479, 3160, 4223799965),
    ("strongarm-l2", "g721"): (10054, 6107, 4756, 3462125290),
    ("strongarm-l2", "go"): (24173, 13592, 13615, 1286),
    ("xscale-l2", "adpcm"): (11598, 8072, 11482, 2282867342),
    ("xscale-l2", "blowfish"): (14911, 6776, 28966, 1638522846),
    ("xscale-l2", "compress"): (9306, 4760, 13754, 58384),
    ("xscale-l2", "crc"): (7642, 4479, 8527, 4223799965),
    ("xscale-l2", "g721"): (11133, 6107, 12602, 3462125290),
    ("xscale-l2", "go"): (27942, 13592, 40853, 1286),
    ("strongarm-c512", "adpcm"): (10146, 8072, 2634, 2282867342),
    ("strongarm-c512", "blowfish"): (23174, 6776, 37000, 1638522846),
    ("strongarm-c512", "compress"): (10884, 4760, 11148, 58384),
    ("strongarm-c512", "crc"): (7403, 4479, 3106, 4223799965),
    ("strongarm-c512", "g721"): (10012, 6107, 4738, 3462125290),
    ("strongarm-c512", "go"): (24059, 13592, 13399, 1286),
    ("strongarm-c2k", "adpcm"): (10146, 8072, 2634, 2282867342),
    ("strongarm-c2k", "blowfish"): (11534, 6776, 7540, 1638522846),
    ("strongarm-c2k", "compress"): (8184, 4760, 3948, 58384),
    ("strongarm-c2k", "crc"): (7403, 4479, 3106, 4223799965),
    ("strongarm-c2k", "g721"): (10012, 6107, 4738, 3462125290),
    ("strongarm-c2k", "go"): (24059, 13592, 13399, 1286),
    ("strongarm-c8k", "adpcm"): (10146, 8072, 2634, 2282867342),
    ("strongarm-c8k", "blowfish"): (11534, 6776, 7540, 1638522846),
    ("strongarm-c8k", "compress"): (8184, 4760, 3948, 58384),
    ("strongarm-c8k", "crc"): (7403, 4479, 3106, 4223799965),
    ("strongarm-c8k", "g721"): (10012, 6107, 4738, 3462125290),
    ("strongarm-c8k", "go"): (24059, 13592, 13399, 1286),
}


@pytest.mark.parametrize("backend", ["interpreted", "generated"])
@pytest.mark.parametrize("model,kernel", sorted(GOLDEN))
def test_golden_statistics_are_unchanged(model, kernel, backend):
    expected_cycles, expected_instructions, expected_stalls, expected_r0 = GOLDEN[
        (model, kernel)
    ]
    workload = get_workload(kernel, scale=1)
    processor = build_processor(model, backend=backend)
    processor.load_program(workload.program)
    stats = processor.run(max_cycles=2_000_000)

    assert stats.finish_reason == "halt"
    assert stats.cycles == expected_cycles
    assert stats.instructions == expected_instructions
    assert stats.stalls == expected_stalls
    assert processor.register(0) == expected_r0


@pytest.mark.parametrize("model,kernel", sorted(GOLDEN))
def test_traced_generated_run_matches_golden(model, kernel):
    """The trace-instrumented emission is its own module: pin it to the same rows.

    The ring is deliberately small, so eviction happens on every row and
    the statistics must still not move.
    """
    expected_cycles, expected_instructions, expected_stalls, expected_r0 = GOLDEN[
        (model, kernel)
    ]
    workload = get_workload(kernel, scale=1)
    options = EngineOptions(backend="generated", trace=TraceConfig(capacity=1024))
    processor = build_processor(model, engine_options=options)
    processor.load_program(workload.program)
    stats = processor.run(max_cycles=2_000_000)

    assert stats.finish_reason == "halt"
    assert stats.cycles == expected_cycles
    assert stats.instructions == expected_instructions
    assert stats.stalls == expected_stalls
    assert processor.register(0) == expected_r0
    assert processor.tracer.recorded > 0


#: Dual-issue variant -> its single-issue parent.
DUAL_ISSUE_PARENTS = {"strongarm-ds": "strongarm", "xscale-ds": "xscale"}


@pytest.mark.parametrize("variant,parent", sorted(DUAL_ISSUE_PARENTS.items()))
def test_dual_issue_invariants_against_single_issue_parent(variant, parent):
    """A wider front end may only help: same work, fewer (or equal) cycles.

    On every kernel the dual-issue model must retire exactly the same
    instruction stream as its parent (identical retired counts and final
    architectural result — the golden rows above pin the absolute values),
    and on the crc kernel its CPI must be at most the parent's.
    """
    for kernel in ("crc", "adpcm", "go"):
        workload = get_workload(kernel, scale=1)
        results = {}
        for model in (parent, variant):
            processor = build_processor(model)
            processor.load_program(workload.program)
            stats = processor.run(max_cycles=2_000_000)
            results[model] = (stats.cycles, stats.instructions, processor.register(0))
        assert results[variant][1] == results[parent][1], kernel
        assert results[variant][2] == results[parent][2], kernel
        cpi = {m: c / i for m, (c, i, _) in results.items()}
        if kernel == "crc":
            assert cpi[variant] <= cpi[parent]
