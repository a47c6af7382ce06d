"""Integration tests for the spec-driven memory hierarchy (Figure 12 layer).

The ``strongarm-l2``/``xscale-l2`` registry entries share their 512-byte
split-L1 geometry with the ``strongarm-c512`` sweep point, so the pairs
see *identical* L1 miss streams — the only difference is what serves a
miss (a 6-cycle L2 or the 30-cycle memory).  These tests pin the claims
the hierarchy was added for: capacity misses are strictly cheaper through
the L2, a reused processor never starts with a warm cache, and campaign
results carry the per-level statistics the fig12 report aggregates.
"""

import pytest

from repro.campaign import CampaignSpec, cache_table, run_campaign, run_single
from repro.processors import build_processor
from repro.processors.variants import small_l1_memory
from repro.processors.xscale import xscale_spec
from repro.workloads import get_workload

#: Kernels whose data working set overflows a 512 B L1 with reuse — the
#: "load-heavy" kernels of the acceptance criteria (blowfish's S-box is
#: 1 KB; compress streams through a dictionary larger than the L1).
LOAD_HEAVY_KERNELS = ("blowfish", "compress")


def run(model_or_spec, kernel):
    if isinstance(model_or_spec, str):
        processor = build_processor(model_or_spec)
    else:
        from repro.describe import elaborate

        processor = elaborate(model_or_spec)
    workload = get_workload(kernel, scale=1)
    processor.load_program(workload.program)
    stats = processor.run(max_cycles=2_000_000)
    assert stats.finish_reason == "halt"
    return processor, stats


@pytest.mark.parametrize("kernel", LOAD_HEAVY_KERNELS)
def test_strongarm_l2_misses_cost_strictly_less_than_memory_direct(kernel):
    direct, _ = run("strongarm-c512", kernel)
    layered, _ = run("strongarm-l2", kernel)

    direct_d = direct.cache_statistics()["dcache"]
    layered_d = layered.cache_statistics()["dcache"]
    # Identical L1 geometry => identical miss streams ...
    assert layered_d.accesses == direct_d.accesses
    assert layered_d.misses == direct_d.misses
    assert layered_d.writebacks == direct_d.writebacks
    # ... but the L2 serves them strictly cheaper than the memory trip.
    assert layered_d.miss_cycles < direct_d.miss_cycles
    assert layered.cache_statistics()["l2"].hits > 0


@pytest.mark.parametrize("kernel", LOAD_HEAVY_KERNELS)
def test_xscale_l2_misses_cost_strictly_less_than_memory_direct(kernel):
    # XScale has no registered memory-direct sweep point; build the twin
    # inline from the same parameterised spec (same L1, no L2).
    direct, _ = run(
        xscale_spec(name="XScale-C512", memory=small_l1_memory(512, 1)), kernel
    )
    layered, _ = run("xscale-l2", kernel)

    direct_d = direct.cache_statistics()["dcache"]
    layered_d = layered.cache_statistics()["dcache"]
    assert layered_d.misses == direct_d.misses
    assert layered_d.miss_cycles < direct_d.miss_cycles
    assert layered.cache_statistics()["l2"].hits > 0


def test_l2_pays_off_end_to_end_on_blowfish():
    # The headline number: on the kernel with real L1 thrash, the L2 model
    # finishes the whole workload in strictly fewer cycles.
    _, direct = run("strongarm-c512", "blowfish")
    _, layered = run("strongarm-l2", "blowfish")
    assert layered.cycles < direct.cycles


def test_small_cache_model_reset_reuse_is_bit_identical():
    """The cache-sensitive companion of the engine reset-reuse test.

    With a 512 B L1 a warm cache visibly changes the cycle count, so this
    would fail loudly if ``Processor.reset()`` ever went back to clearing
    counters without restoring cold tags.  Cross-backend cache counters
    (and the generated backend's reset reuse on this model) are pinned by
    ``test_backend_equivalence.py``.
    """
    workload = get_workload("blowfish", scale=1)
    processor = build_processor("strongarm-c512")

    observed = []
    for _ in range(3):
        processor.reset()
        processor.load_program(workload.program)
        stats = processor.run(max_cycles=2_000_000)
        observed.append((stats.cycles, stats.stalls, processor.memory.statistics_summary()))
        assert stats.finish_reason == "halt"
    assert observed[1] == observed[0]
    assert observed[2] == observed[0]
    # The point of the regression: the per-run miss counts stay at their
    # cold values instead of dropping on the second run.
    assert observed[0][2]["dcache"]["misses"] > 0


def test_campaign_results_carry_per_level_cache_statistics():
    result = run_single("strongarm-l2", "blowfish")
    assert result.memory["dcache"]["misses"] > 0
    assert result.memory["l2"]["hits"] > 0
    assert 0.0 < result.memory["dcache"]["miss_rate"] < 1.0
    hierarchy = result.generation["memory_hierarchy"]
    assert [level["role"] for level in hierarchy] == [
        "l1-instruction", "l1-data", "l2", "memory",
    ]


def test_fig12_style_campaign_aggregates_a_cache_table():
    spec = CampaignSpec(
        name="fig12-mini",
        processors=("strongarm-c512", "strongarm-l2"),
        workloads=("blowfish",),
        engines=("interpreted",),
    )
    report = run_campaign(spec, max_workers=1)
    rows = {row["processor"]: row for row in cache_table(report)}
    assert set(rows) == {"strongarm-c512", "strongarm-l2"}
    direct, layered = rows["strongarm-c512"], rows["strongarm-l2"]
    assert layered["dcache_miss_cycles"] < direct["dcache_miss_cycles"]
    assert direct["l2_hit_rate"] is None
    assert layered["l2_hit_rate"] > 0.0
    assert layered["cpi"] < direct["cpi"]
