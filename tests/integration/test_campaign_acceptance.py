"""The campaign subsystem's acceptance contract (ISSUE 3).

A campaign over **all registered processors × three workloads × both
engine backends** must (1) complete on a real multiprocessing worker
pool, (2) report per-run statistics bit-identical to direct
:func:`repro.analysis.metrics.run_processor` calls, and (3) when re-run
against the same store, execute **zero** simulations — every run served
from the :class:`~repro.campaign.ResultStore` by content fingerprint.
"""

import functools

import pytest

from repro.analysis.metrics import run_processor
from repro.campaign import ALL, CampaignSpec, plan_campaign, run_campaign
from repro.processors import build_processor, processor_names
from repro.workloads import get_workload

#: Three kernels every registered model (including the ISA-subset
#: ``example``) can execute, so the grid is a clean full cross-product.
ACCEPTANCE = CampaignSpec(
    name="acceptance",
    processors=(ALL,),
    workloads=("blowfish", "compress", "crc"),
    scales=(1,),
    engines=("interpreted", "generated"),
)


@pytest.fixture(scope="module")
def pool_report(tmp_path_factory):
    store = tmp_path_factory.mktemp("campaign") / "store"
    report = run_campaign(ACCEPTANCE, store=store, max_workers=2)
    return store, report


def test_pool_campaign_covers_the_full_grid(pool_report):
    _, report = pool_report
    plan = plan_campaign(ACCEPTANCE)
    expected = len(processor_names()) * 3 * 2
    assert len(plan.runs) == expected
    assert plan.skipped == ()
    assert report.executed == expected
    assert report.cached == 0
    assert len(report.results) == expected
    assert {result.processor for result in report.results} == set(processor_names())
    assert all(result.finish_reason == "halt" for result in report.results)
    # The pool actually fanned out: more than one worker pid appears.
    assert len({result.worker_pid for result in report.results}) > 1


def test_pool_statistics_are_bit_identical_to_direct_runs(pool_report):
    _, report = pool_report
    plan = plan_campaign(ACCEPTANCE)
    for run, result in zip(plan.runs, report.results):
        assert result.fingerprint == run.fingerprint()
        direct = run_processor(
            functools.partial(build_processor, run.processor),
            get_workload(run.workload, scale=run.scale),
            backend=run.engine.backend,
        )
        assert result.cycles == direct.cycles, run.run_id
        assert result.instructions == direct.instructions, run.run_id
        assert result.final_r0 == direct.final_r0, run.run_id
        assert result.stats["cycles"] == direct.cycles, run.run_id


def test_rerun_executes_zero_simulations(pool_report):
    store, report = pool_report
    rerun = run_campaign(ACCEPTANCE, store=store, max_workers=2)
    assert rerun.executed == 0
    assert rerun.cached == len(report.results)
    assert all(result.cached for result in rerun.results)
    # Served results carry the exact simulated quantities of the first run.
    first = [(r.cycles, r.instructions, r.final_r0) for r in report.results]
    served = [(r.cycles, r.instructions, r.final_r0) for r in rerun.results]
    assert served == first
