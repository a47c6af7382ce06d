"""Campaign-level metrics: registry wiring, persistence, cache accounting.

``run_campaign`` records where wall-time goes (phase timers, store
hit/miss counters and the host seconds hits saved, worker utilisation)
into a :class:`~repro.observe.metrics.MetricsRegistry`; the snapshot rides
on ``CampaignReport.metrics`` (this-run values) and is persisted as
``metrics.json`` next to the store with the store counters kept
*cumulative* across invocations.  Tracing rides the same machinery
without invalidating stores: ``EngineVariant.identity()`` excludes the
trace config, so a traced re-run of a stored campaign is served entirely
from cache.
"""

import re

import pytest

from repro.campaign import CampaignSpec, run_campaign
from repro.campaign.cli import main as campaign_main
from repro.campaign.runner import CUMULATIVE_STORE_METRICS, metrics_path
from repro.campaign.spec import EngineVariant
from repro.campaign.store import ResultStore
from repro.core.engine import EngineOptions
from repro.observe.metrics import read_metrics_json, snapshot_value
from repro.observe.trace import TraceConfig

SPEC = CampaignSpec(
    name="metrics",
    processors=("strongarm",),
    workloads=("crc",),
    scales=(1,),
    engines=("interpreted", "generated"),
    max_cycles=2_000,
)


@pytest.fixture(scope="module")
def store_and_reports(tmp_path_factory):
    store = str(tmp_path_factory.mktemp("campaign") / "store")
    first = run_campaign(SPEC, store=store)
    second = run_campaign(SPEC, store=store)
    return store, first, second


def test_report_metrics_snapshot_reflects_this_run(store_and_reports):
    _, first, second = store_and_reports
    assert snapshot_value(first.metrics, "campaign.store.misses") == 2
    assert snapshot_value(first.metrics, "campaign.store.hits") == 0
    assert snapshot_value(first.metrics, "campaign.run.wall_seconds") == 2
    assert snapshot_value(first.metrics, "campaign.units") == 2
    # The second invocation is fully cached: this-run metrics say so.
    assert snapshot_value(second.metrics, "campaign.store.hits") == 2
    assert snapshot_value(second.metrics, "campaign.store.misses") == 0
    assert second.saved_wall_seconds == pytest.approx(
        sum(result.wall_seconds for result in second.results)
    )
    for phase in ("plan", "store_load", "execute"):
        name = "campaign.phase.%s_seconds" % phase
        assert snapshot_value(second.metrics, name) >= 0


def test_metrics_json_keeps_store_counters_cumulative(store_and_reports):
    store, first, second = store_and_reports
    persisted = read_metrics_json(metrics_path(ResultStore(store)))
    assert persisted is not None
    # Across the two invocations: 2 misses (first) + 2 hits (second).
    assert snapshot_value(persisted, "campaign.store.hits") == 2
    assert snapshot_value(persisted, "campaign.store.misses") == 2
    saved = snapshot_value(persisted, "campaign.store.saved_wall_seconds")
    assert saved == pytest.approx(second.saved_wall_seconds)
    # Only the designated counters accumulate; the rest is last-run state
    # (the second invocation was fully cached, so it had 0 pending units).
    assert set(CUMULATIVE_STORE_METRICS) == {
        "campaign.store.hits",
        "campaign.store.misses",
        "campaign.store.saved_wall_seconds",
    }
    assert snapshot_value(persisted, "campaign.units") == 0


def test_traced_rerun_is_served_entirely_from_store(store_and_reports):
    store, first, _ = store_and_reports
    traced = CampaignSpec(
        name="metrics",
        processors=("strongarm",),
        workloads=("crc",),
        scales=(1,),
        engines=(
            EngineVariant(
                label="interpreted",
                options=EngineOptions(backend="interpreted", trace=TraceConfig()),
            ),
            EngineVariant(
                label="generated",
                options=EngineOptions(backend="generated", trace=TraceConfig()),
            ),
        ),
        max_cycles=2_000,
    )
    rerun = run_campaign(traced, store=store)
    assert rerun.executed == 0
    assert rerun.cached == 2
    served = {(r.engine, r.cycles) for r in rerun.results}
    assert served == {(r.engine, r.cycles) for r in first.results}


def test_report_cli_prints_store_cache_summary(store_and_reports, tmp_path, capsys):
    store, _, _ = store_and_reports
    export = str(tmp_path / "metrics-export.json")
    code = campaign_main(
        ["report", "--store", store, "--metrics", "--metrics-json", export]
    )
    assert code == 0
    output = capsys.readouterr().out
    # Earlier tests in this module may have re-run the campaign against the
    # same store, so only the miss count is exact; hits keep accumulating.
    match = re.search(r"store cache \(cumulative\): (\d+) hit\(s\), (\d+) miss\(es\)", output)
    assert match, output
    assert int(match.group(1)) >= 2
    assert int(match.group(2)) == 2
    assert "campaign metrics" in output
    assert "campaign.store.hits" in output
    exported = read_metrics_json(export)
    assert snapshot_value(exported, "campaign.store.hits") >= 2


def test_run_cli_prints_store_cache_line(store_and_reports, capsys):
    store, _, _ = store_and_reports
    code = campaign_main(
        [
            "run",
            "--store",
            store,
            "--processors",
            "strongarm",
            "--workloads",
            "crc",
            "--engines",
            "interpreted,generated",
            "--max-cycles",
            "2000",
            "--name",
            "metrics",
            "--expect-all-cached",
        ]
    )
    assert code == 0
    output = capsys.readouterr().out
    assert "store cache: 2 hit(s), 0 miss(es)" in output
