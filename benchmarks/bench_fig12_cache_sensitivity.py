"""Figure 12 — cache sensitivity of the generated simulators.

The paper's pitch for data-dependent delays (Section 3.2) is that the
memory hierarchy hands real, address-dependent latencies to the RCPN
transitions.  This benchmark sweeps that mechanism end to end now that the
hierarchy is spec-driven:

* every registered model runs the two kernels whose working sets overflow
  a small L1 (blowfish, compress) on both engine backends, and the cache
  counters — not just the cycle counts — must be bit-identical between
  interpreted and generated execution;
* the ``strongarm-c512`` → ``strongarm-c2k`` → ``strongarm-c8k`` sweep
  family shows CPI and data-miss rate falling monotonically with L1
  capacity;
* the ``strongarm-l2``/``xscale-l2`` models, sharing the 512 B L1
  geometry with the memory-direct ``strongarm-c512`` point, pay strictly
  fewer miss cycles for the identical miss stream.

The grid is a declarative :class:`~repro.campaign.CampaignSpec`; pointing
the same campaign at a result store makes re-runs free.
"""

import pytest

from repro.campaign import ALL, CampaignSpec, cache_table, execute_run, plan_campaign

from conftest import BENCH_SCALE, record_result

#: The kernels with L1-overflowing, reused working sets at benchmark scale.
CACHE_KERNELS = ("blowfish", "compress")

FIG12_CAMPAIGN = CampaignSpec(
    name="fig12-cache-sensitivity",
    processors=(ALL,),
    workloads=CACHE_KERNELS,
    scales=(BENCH_SCALE,),
    engines=("interpreted", "generated"),
    description="Figure 12: CPI and miss rates vs cache geometry, both backends",
)
FIG12_PLAN = plan_campaign(FIG12_CAMPAIGN)

#: L1 capacity sweep points, smallest to largest.
SWEEP_FAMILY = ("strongarm-c512", "strongarm-c2k", "strongarm-c8k")

_RESULTS = {}


def fig12_result(run):
    result = _RESULTS.get(run.run_id)
    if result is None:
        result = _RESULTS[run.run_id] = execute_run(run, campaign=FIG12_CAMPAIGN.name)
    return result


@pytest.mark.parametrize("run", FIG12_PLAN.runs, ids=FIG12_PLAN.run_ids())
def test_fig12_cache_statistics_agree_across_backends(benchmark, run):
    result = benchmark.pedantic(lambda: fig12_result(run), rounds=1, iterations=1)

    assert result.finish_reason == "halt"
    assert result.memory["dcache"]["accesses"] > 0
    if run.engine.label == "generated":
        interpreted = fig12_result(
            next(
                r
                for r in FIG12_PLAN.runs
                if r.run_id == run.run_id.replace("/generated", "/interpreted")
            )
        )
        assert result.cycles == interpreted.cycles
        assert result.memory == interpreted.memory


def test_fig12_miss_rate_falls_monotonically_with_l1_capacity():
    rows = {}
    for model in SWEEP_FAMILY:
        for kernel in CACHE_KERNELS:
            run = next(
                r
                for r in FIG12_PLAN.runs
                if r.processor == model
                and r.workload == kernel
                and r.engine.label == "interpreted"
            )
            result = fig12_result(run)
            rows[(model, kernel)] = result
            record_result(
                "Figure 12 - cache sensitivity (CPI and miss rate vs L1 size)",
                {
                    "model": model,
                    "benchmark": kernel,
                    "cpi": result.cpi,
                    "dcache_miss_rate": result.memory["dcache"]["miss_rate"],
                    "dcache_miss_cycles": result.memory["dcache"]["miss_cycles"],
                },
            )
    for kernel in CACHE_KERNELS:
        sweep = [rows[(model, kernel)] for model in SWEEP_FAMILY]
        rates = [r.memory["dcache"]["miss_rate"] for r in sweep]
        cpis = [r.cpi for r in sweep]
        assert rates == sorted(rates, reverse=True), kernel
        assert cpis == sorted(cpis, reverse=True), kernel
        # The smallest L1 must actually be under pressure for the sweep to
        # mean anything.
        assert sweep[0].memory["dcache"]["misses"] > sweep[-1].memory["dcache"]["misses"]


def memory_direct_twin(layered, kernel):
    """The layered model's memory-direct counterpart on ``kernel``.

    ``strongarm-l2`` has a registered twin (``strongarm-c512``); XScale's
    is built inline from the same parameterised spec so the comparison
    stays within one pipeline — the miss *stream* must be identical, and
    a different pipeline could legitimately issue a different one.
    """
    if layered == "strongarm-l2":
        run = next(
            r
            for r in FIG12_PLAN.runs
            if r.processor == "strongarm-c512"
            and r.workload == kernel
            and r.engine.label == "interpreted"
        )
        return fig12_result(run)
    from repro.campaign import run_single
    from repro.processors.variants import small_l1_memory
    from repro.processors.xscale import xscale_spec

    key = "xscale-c512/%s" % kernel
    result = _RESULTS.get(key)
    if result is None:
        result = _RESULTS[key] = run_single(
            xscale_spec(name="XScale-C512", memory=small_l1_memory(512, 1)),
            kernel,
            scale=BENCH_SCALE,
        )
    return result


@pytest.mark.parametrize("layered", ["strongarm-l2", "xscale-l2"])
def test_fig12_l2_beats_memory_direct_on_the_same_miss_stream(layered):
    for kernel in CACHE_KERNELS:
        direct = memory_direct_twin(layered, kernel)
        with_l2 = fig12_result(
            next(
                r
                for r in FIG12_PLAN.runs
                if r.processor == layered
                and r.workload == kernel
                and r.engine.label == "interpreted"
            )
        )
        record_result(
            "Figure 12 (cont.) - L2 vs memory-direct miss cost",
            {
                "model": layered,
                "benchmark": kernel,
                "direct_miss_cycles": direct.memory["dcache"]["miss_cycles"],
                "l2_miss_cycles": with_l2.memory["dcache"]["miss_cycles"],
                "l2_hit_rate": with_l2.memory["l2"]["hit_rate"],
            },
        )
        assert with_l2.memory["dcache"]["misses"] == direct.memory["dcache"]["misses"]
        assert with_l2.memory["dcache"]["miss_cycles"] < direct.memory["dcache"]["miss_cycles"]


def test_fig12_cache_table_covers_the_grid():
    # The aggregation view the CLI renders: one row per executed grid point.
    results = [fig12_result(run) for run in FIG12_PLAN.runs]
    rows = cache_table(results)
    assert len(rows) == len(FIG12_PLAN.runs)
    by_model = {row["processor"] for row in rows}
    assert set(SWEEP_FAMILY) <= by_model and {"strongarm-l2", "xscale-l2"} <= by_model
