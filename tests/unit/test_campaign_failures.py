"""Failure isolation in the campaign runner (and its CLI surface).

Failures are first-class: a failing run is retried with a budget
(``CampaignSpec.max_retries``), runs that exhaust the budget persist as
``"failed"`` store records (visible in ``status``/``report``, never
served as cache hits), and ``keep_going`` finishes the whole grid before
the collected :class:`CampaignError` is raised.
"""

import io
import json

import pytest

from repro.campaign import (
    CampaignError,
    CampaignSpec,
    ResultStore,
    failure_rows,
    run_campaign,
)
from repro.campaign import runner as runner_module
from repro.campaign.cli import main as cli_main
from repro.observe.metrics import snapshot_value


def _spec(workloads=("crc",), max_retries=0, **kwargs):
    return CampaignSpec(
        name="faulty",
        processors=("arm7-mini",),
        workloads=workloads,
        engines=("interpreted",),
        max_retries=max_retries,
        retry_backoff_seconds=0.0,  # tests must not sleep
        **kwargs,
    )


class _FlakyExecutor:
    """Delegate to the real ``execute_run`` after ``failures`` induced errors."""

    def __init__(self, real, fail_run_ids, failures):
        self.real = real
        self.fail_run_ids = set(fail_run_ids)
        self.budget = {run_id: failures for run_id in self.fail_run_ids}
        self.calls = []

    def __call__(self, run, campaign=""):
        self.calls.append(run.run_id)
        if self.budget.get(run.run_id, 0) > 0:
            self.budget[run.run_id] -= 1
            raise RuntimeError("injected fault in %s" % run.run_id)
        return self.real(run, campaign=campaign)


@pytest.fixture
def flaky(monkeypatch):
    def install(fail_run_ids, failures):
        executor = _FlakyExecutor(
            runner_module.execute_run, fail_run_ids, failures
        )
        monkeypatch.setattr(runner_module, "execute_run", executor)
        return executor

    return install


class TestRetries:
    def test_transient_failure_is_retried_and_succeeds(self, flaky, tmp_path):
        executor = flaky(["arm7-mini/crc@1/interpreted"], failures=2)
        report = run_campaign(
            _spec(max_retries=2), store=tmp_path / "store", max_workers=1
        )
        assert report.executed == 1
        assert report.results[0].ok
        assert executor.calls.count("arm7-mini/crc@1/interpreted") == 3
        assert snapshot_value(report.metrics, "campaign.run.retries") == 2
        assert snapshot_value(report.metrics, "campaign.run.failures") == 0

    def test_retry_budget_is_a_hard_ceiling(self, flaky, tmp_path):
        executor = flaky(["arm7-mini/crc@1/interpreted"], failures=99)
        with pytest.raises(CampaignError, match="injected fault"):
            run_campaign(_spec(max_retries=2), store=tmp_path / "store", max_workers=1)
        assert executor.calls.count("arm7-mini/crc@1/interpreted") == 3  # 1 + 2 retries

    def test_exhausted_run_persists_a_failed_record(self, flaky, tmp_path):
        flaky(["arm7-mini/crc@1/interpreted"], failures=99)
        with pytest.raises(CampaignError):
            run_campaign(_spec(max_retries=1), store=tmp_path / "store", max_workers=1)
        store = ResultStore(tmp_path / "store")
        assert len(store) == 1
        failed = store.results()[0]
        assert not failed.ok
        assert failed.kind == "failed"
        assert failed.attempts == 2
        assert "injected fault" in failed.error
        assert "RuntimeError" in failed.error_details  # full traceback rides along

    def test_failed_store_record_is_retried_not_served(self, flaky, tmp_path):
        """The acceptance scenario: the retry succeeds after the fault clears."""
        executor = flaky(["arm7-mini/crc@1/interpreted"], failures=99)
        with pytest.raises(CampaignError):
            run_campaign(_spec(), store=tmp_path / "store", max_workers=1)

        executor.budget.clear()  # the fault clears
        clear = run_campaign(_spec(), store=tmp_path / "store", max_workers=1)
        assert clear.executed == 1 and clear.cached == 0  # retried, not served
        assert clear.results[0].ok
        assert (
            snapshot_value(clear.metrics, "campaign.store.failed_retried") == 1
        )

        # The success overwrote the failure row: the store now serves it.
        warm = run_campaign(_spec(), store=tmp_path / "store", max_workers=1)
        assert warm.executed == 0 and warm.cached == 1

    def test_failed_store_record_retry_uses_cleared_executor(self, flaky, tmp_path):
        executor = flaky(["arm7-mini/crc@1/interpreted"], failures=1)
        with pytest.raises(CampaignError):
            run_campaign(_spec(), store=tmp_path / "store", max_workers=1)
        # Second invocation: the injected budget is spent, the run succeeds.
        clear = run_campaign(_spec(), store=tmp_path / "store", max_workers=1)
        assert clear.results[0].ok
        assert executor.calls.count("arm7-mini/crc@1/interpreted") == 2


class TestKeepGoing:
    def test_keep_going_finishes_the_grid_before_raising(self, flaky, tmp_path):
        flaky(["arm7-mini/crc@1/interpreted"], failures=99)
        spec = _spec(workloads=("crc", "compress", "adpcm"))
        with pytest.raises(CampaignError, match=r"1 run\(s\) failed"):
            run_campaign(
                spec, store=tmp_path / "store", max_workers=1, keep_going=True
            )
        store = ResultStore(tmp_path / "store")
        by_run = {result.run_id: result for result in store.results()}
        # Every sibling completed and persisted despite the poisoned run.
        assert by_run["arm7-mini/compress@1/interpreted"].ok
        assert by_run["arm7-mini/adpcm@1/interpreted"].ok
        assert not by_run["arm7-mini/crc@1/interpreted"].ok

    def test_default_stops_at_the_first_final_failure(self, flaky, tmp_path):
        executor = flaky(["arm7-mini/crc@1/interpreted"], failures=99)
        spec = _spec(workloads=("crc", "compress", "adpcm"))
        with pytest.raises(CampaignError, match="keep_going"):
            run_campaign(spec, store=tmp_path / "store", max_workers=1)
        # crc is the first unit; the failure stopped the serial loop there.
        assert "arm7-mini/compress@1/interpreted" not in executor.calls

    def test_keep_going_collects_every_failure(self, flaky, tmp_path):
        flaky(
            ["arm7-mini/crc@1/interpreted", "arm7-mini/adpcm@1/interpreted"],
            failures=99,
        )
        spec = _spec(workloads=("crc", "compress", "adpcm"))
        with pytest.raises(CampaignError, match=r"2 run\(s\) failed"):
            run_campaign(
                spec, store=tmp_path / "store", max_workers=1, keep_going=True
            )
        rows = failure_rows(ResultStore(tmp_path / "store"))
        assert {row["workload"] for row in rows} == {"crc", "adpcm"}
        assert all(row["error"].startswith("RuntimeError") for row in rows)


class TestSpecKnobs:
    def test_retry_knobs_round_trip_through_dict(self):
        spec = _spec(max_retries=3)
        rebuilt = CampaignSpec.from_dict(spec.to_dict())
        assert rebuilt.max_retries == 3
        assert rebuilt.retry_backoff_seconds == 0.0

    @pytest.mark.parametrize(
        "kwargs,needle",
        [
            (dict(max_retries=-1), "bad max_retries"),
            (dict(max_retries=1.5), "bad max_retries"),
            (dict(retry_backoff_seconds=-0.1), "bad retry_backoff_seconds"),
        ],
    )
    def test_bad_retry_knobs_are_rejected(self, kwargs, needle):
        spec = CampaignSpec(name="x", processors=("strongarm",), **kwargs)
        with pytest.raises(CampaignError, match=needle):
            spec.validate()

    def test_retry_knobs_do_not_change_fingerprints(self, tmp_path):
        from repro.campaign import plan_campaign

        lax = _spec(max_retries=0)
        strict = _spec(max_retries=5)
        assert (
            plan_campaign(lax).fingerprints == plan_campaign(strict).fingerprints
        )


class TestFailureCli:
    GRID = [
        "--name", "cli-faulty",
        "--processors", "arm7-mini",
        "--workloads", "crc,compress",
        "--engines", "interpreted",
        "--retry-backoff", "0",
    ]

    def _install_flaky(self, monkeypatch, run_ids, failures=99):
        executor = _FlakyExecutor(runner_module.execute_run, run_ids, failures)
        monkeypatch.setattr(runner_module, "execute_run", executor)
        return executor

    def test_run_keep_going_reports_failures_and_exits_nonzero(
        self, monkeypatch, tmp_path
    ):
        self._install_flaky(monkeypatch, ["arm7-mini/crc@1/interpreted"])
        store = str(tmp_path / "store")
        out = io.StringIO()
        code = cli_main(
            ["run", *self.GRID, "--store", store, "--max-workers", "1",
             "--keep-going", "--verbose"],
            out,
        )
        assert code == 1
        message = out.getvalue()
        assert "FAILED" in message
        assert "injected fault" in message

    def test_status_shows_failure_rows_as_pending(self, monkeypatch, tmp_path):
        self._install_flaky(monkeypatch, ["arm7-mini/crc@1/interpreted"])
        store = str(tmp_path / "store")
        cli_main(
            ["run", *self.GRID, "--store", store, "--max-workers", "1", "--keep-going"],
            io.StringIO(),
        )
        out = io.StringIO()
        code = cli_main(["status", *self.GRID, "--store", store], out)
        message = out.getvalue()
        assert code == 2  # failed == pending: a re-run will retry it
        assert "1 failed, 1 pending" in message
        assert "failed arm7-mini/crc@1/interpreted" in message

    def test_report_renders_the_failure_table(self, monkeypatch, tmp_path):
        self._install_flaky(monkeypatch, ["arm7-mini/crc@1/interpreted"])
        store = str(tmp_path / "store")
        cli_main(
            ["run", *self.GRID, "--store", store, "--max-workers", "1", "--keep-going"],
            io.StringIO(),
        )
        out = io.StringIO()
        assert cli_main(["report", "--store", store], out) == 0
        message = out.getvalue()
        assert "failed runs" in message
        assert "injected fault" in message
        # The healthy sibling still aggregates normally.
        assert "compress" in message

    def test_compact_and_fsck_round_trip(self, tmp_path):
        store = str(tmp_path / "store")
        cli_main(
            ["run", *self.GRID, "--store", store, "--max-workers", "1"], io.StringIO()
        )
        # Tear a line to simulate a killed writer.
        with open(tmp_path / "store" / "results.jsonl", "a", encoding="utf-8") as handle:
            handle.write('{"half a line')

        out = io.StringIO()
        assert cli_main(["fsck", "--store", store], out) == 2
        assert "1 quarantined line(s)" in out.getvalue()

        out = io.StringIO()
        assert cli_main(["compact", "--store", store], out) == 0
        assert "quarantined" in out.getvalue()

        out = io.StringIO()
        assert cli_main(["fsck", "--store", store], out) == 0
        assert "0 quarantined line(s)" in out.getvalue()

        # The compacted store still serves the whole campaign from cache.
        out = io.StringIO()
        code = cli_main(
            ["run", *self.GRID, "--store", store, "--max-workers", "1",
             "--expect-all-cached"],
            out,
        )
        assert code == 0

    def test_fsck_on_a_missing_store_fails_cleanly(self, tmp_path):
        out = io.StringIO()
        assert cli_main(["fsck", "--store", str(tmp_path / "nowhere")], out) == 1
        assert "does not exist" in out.getvalue()

    def test_compact_on_a_missing_store_fails_cleanly(self, tmp_path):
        out = io.StringIO()
        assert cli_main(["compact", "--store", str(tmp_path / "nowhere")], out) == 1
        assert "does not exist" in out.getvalue()
        assert not (tmp_path / "nowhere").exists()

    def test_sharded_store_from_before_1_17_is_refused_then_folded_by_compact(
        self, tmp_path
    ):
        store = tmp_path / "store"
        cli_main(
            ["run", *self.GRID, "--store", str(store), "--max-workers", "1"], io.StringIO()
        )
        # Rebuild the old layout by hand: the first record also sits, newer,
        # in shards/000.jsonl, next to the store.json meta and a lock sidecar.
        lines = (store / "results.jsonl").read_text().splitlines()
        newer = json.loads(lines[0])
        newer["wall_seconds"] = 123.0
        (store / "shards").mkdir()
        (store / "shards" / "000.jsonl").write_text(json.dumps(newer) + "\n")
        (store / "shards" / "000.jsonl.lock").write_text("")
        (store / "store.json").write_text('{"layout_version": 1, "shard_count": 16}\n')
        assert (store / "metrics.json").exists()

        for command in (["status", *self.GRID], ["run", *self.GRID, "--max-workers", "1"]):
            out = io.StringIO()
            assert cli_main([*command, "--store", str(store)], out) == 1
            assert "compact --store %s" % store in out.getvalue()

        assert cli_main(["compact", "--store", str(store)], io.StringIO()) == 0
        assert sorted(path.name for path in store.iterdir()) == ["metrics.json", "results.jsonl"]
        assert len((store / "results.jsonl").read_text().splitlines()) == len(lines)
        assert ResultStore(store).get(newer["fingerprint"]).wall_seconds == 123.0

        out = io.StringIO()
        code = cli_main(
            ["run", *self.GRID, "--store", str(store), "--max-workers", "1", "--expect-all-cached"],
            out,
        )
        assert code == 0

    def test_resumed_campaign_after_worker_crash_serves_intact_results(
        self, tmp_path
    ):
        """Crash-recovery acceptance: a torn line costs one run, not the store."""
        store = str(tmp_path / "store")
        cli_main(
            ["run", *self.GRID, "--store", store, "--max-workers", "1"], io.StringIO()
        )
        # Simulate the orchestrator dying mid-append: truncate the store's
        # final line so exactly one stored result is lost.
        victim = tmp_path / "store" / "results.jsonl"
        text = victim.read_text()
        victim.write_text(text[: len(text) - 20])

        survivors = ResultStore(store)
        assert len(survivors) == 1  # the first line's result warm-loads
        assert len(survivors.quarantined()) == 1

        out = io.StringIO()
        code = cli_main(
            ["run", *self.GRID, "--store", store, "--max-workers", "1", "--verbose"],
            out,
        )
        assert code == 0
        assert "1 from store" in out.getvalue()  # intact result re-served
        assert "1 executed" in out.getvalue()  # only the torn run re-ran
