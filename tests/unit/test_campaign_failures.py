"""Failure isolation in the campaign runner (and its CLI surface).

Failures are first-class: a run that raises executes once and persists as
a ``"failed"`` store record (visible in ``status``/``report``, never
served as cache hits), the default stops the campaign — in process or on
a pool — at the first failed run, and ``keep_going`` finishes the whole
grid before the collected :class:`CampaignError` is raised.  An
orchestrator killed outright takes its pool workers with it.
"""

import io
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from dataclasses import replace

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

CRC = "arm7-mini/crc@1/interpreted"

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the pooled tests inject their executor into forked workers",
)


def _spec(workloads=("crc",), **kwargs):
    return CampaignSpec(
        name="faulty",
        processors=("arm7-mini",),
        workloads=workloads,
        engines=("interpreted",),
        **kwargs,
    )


class _FlakyExecutor:
    """Delegate to the real ``execute_run`` after ``failures`` induced errors.

    ``delay`` seconds pass before each run that is not failed, so a pooled
    failure arrives while its siblings are still in flight.
    """

    def __init__(self, real, fail_run_ids, failures, delay=0.0):
        self.real = real
        self.fail_run_ids = set(fail_run_ids)
        self.budget = {run_id: failures for run_id in self.fail_run_ids}
        self.delay = delay
        self.calls = []

    def __call__(self, run, campaign=""):
        self.calls.append(run.run_id)
        if self.budget.get(run.run_id, 0) > 0:
            self.budget[run.run_id] -= 1
            raise RuntimeError("injected fault in %s" % run.run_id)
        time.sleep(self.delay)
        return self.real(run, campaign=campaign)


@pytest.fixture
def flaky(monkeypatch):
    def install(fail_run_ids, failures, delay=0.0):
        executor = _FlakyExecutor(
            runner_module.execute_run, fail_run_ids, failures, delay
        )
        monkeypatch.setattr(runner_module, "execute_run", executor)
        return executor

    return install


class TestRetries:
    """A failing run gets no second attempt within its campaign; the next
    campaign re-executes its stored failure."""

    @needs_fork
    def test_transient_failure_is_retried_and_succeeds(self, flaky, tmp_path):
        executor = flaky([CRC, "arm7-mini/adpcm@1/interpreted"], failures=99)
        spec = _spec(workloads=("crc", "compress", "adpcm"))
        with pytest.raises(CampaignError, match=r"2 run\(s\) failed"):
            run_campaign(
                spec, store=tmp_path / "store", max_workers=2, mp_context="fork",
                keep_going=True,
            )

        executor.budget.clear()  # the fault clears before the next pool forks
        clear = run_campaign(
            spec, store=tmp_path / "store", max_workers=2, mp_context="fork"
        )
        assert clear.executed == 2 and clear.cached == 1  # only the failures rerun
        assert all(result.ok for result in clear.results)

    def test_retry_budget_is_a_hard_ceiling(self, flaky, tmp_path):
        executor = flaky([CRC], failures=99)
        for campaign in range(3):
            with pytest.raises(CampaignError, match="injected fault"):
                run_campaign(_spec(), store=tmp_path / "store", max_workers=1)
            # One execution per campaign: no retry rounds pile up.
            assert executor.calls == [CRC] * (campaign + 1)
        store = ResultStore(tmp_path / "store")
        assert len(store) == 1  # each failure row overwrote the last
        assert not store.results()[0].ok

    def test_exhausted_run_persists_a_failed_record(self, flaky, tmp_path):
        executor = flaky(["arm7-mini/crc@1/interpreted"], failures=99)
        with pytest.raises(CampaignError):
            run_campaign(_spec(), store=tmp_path / "store", max_workers=1)
        assert executor.calls == ["arm7-mini/crc@1/interpreted"]  # executed once
        store = ResultStore(tmp_path / "store")
        assert len(store) == 1
        failed = store.results()[0]
        assert not failed.ok
        assert failed.kind == "failed"
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


@needs_fork
class TestPooledFailures:
    def test_default_stops_a_pooled_campaign_at_the_first_failure(
        self, flaky, tmp_path
    ):
        flaky([CRC], failures=99, delay=0.3)
        spec = _spec(workloads=("crc", "compress", "adpcm", "blowfish"), repeats=2)
        with pytest.raises(CampaignError, match="keep_going"):
            run_campaign(
                spec, store=tmp_path / "store", max_workers=2, mp_context="fork"
            )
        by_run = {result.run_id: result for result in ResultStore(tmp_path / "store").results()}
        assert not by_run[CRC].ok
        # 7 siblings were queued behind the failure; the pool was terminated.
        assert sum(result.ok for result in by_run.values()) < 7

    def test_failed_row_records_its_worker_and_no_wall_sample(self, flaky, tmp_path):
        flaky([CRC], failures=99)
        with pytest.raises(CampaignError, match=r"1 run\(s\) failed"):
            run_campaign(
                _spec(workloads=("crc", "compress", "adpcm")),
                store=tmp_path / "store",
                max_workers=2,
                mp_context="fork",
                keep_going=True,
            )
        by_run = {result.run_id: result for result in ResultStore(tmp_path / "store").results()}
        assert len(by_run) == 3
        assert by_run[CRC].worker_pid not in (0, os.getpid())  # built on the worker
        assert by_run[CRC].wall_seconds == 0.0
        assert all(result.wall_seconds > 0 for result in by_run.values() if result.ok)


class TestSpecKnobs:
    """The retired retry knobs, as spec-file input: read past, never kept."""

    def _legacy(self, max_retries):
        return CampaignSpec.from_dict(
            {
                **_spec(workloads=("crc", "compress")).to_dict(),
                "max_retries": max_retries,
                "retry_backoff_seconds": 0.0,
            }
        )

    def test_retry_knobs_round_trip_through_dict(self):
        legacy = self._legacy(3)
        data = legacy.to_dict()
        assert "max_retries" not in data
        assert "retry_backoff_seconds" not in data
        assert CampaignSpec.from_dict(data) == legacy

    def test_retry_knobs_do_not_change_fingerprints(self):
        from repro.campaign import plan_campaign

        lax = plan_campaign(self._legacy(0)).fingerprints
        strict = plan_campaign(self._legacy(5)).fingerprints
        plain = plan_campaign(_spec(workloads=("crc", "compress"))).fingerprints
        assert lax == strict == plain


class TestLegacyInputs:
    """Spec files and store rows written while campaigns had retry rounds."""

    LEGACY_KNOBS = {"max_retries": 3, "retry_backoff_seconds": 0.5}

    def _data(self):
        return _spec(workloads=("crc", "compress")).to_dict()

    def test_spec_dict_with_retry_knobs_loads_unchanged(self):
        from repro.campaign import plan_campaign

        plain = CampaignSpec.from_dict(self._data())
        legacy = CampaignSpec.from_dict({**self._data(), **self.LEGACY_KNOBS})
        assert legacy == plain
        assert plan_campaign(legacy).fingerprints == plan_campaign(plain).fingerprints

    def test_run_accepts_a_spec_file_with_retry_knobs(self, tmp_path):
        spec_path = tmp_path / "campaign.json"
        spec_path.write_text(json.dumps({**self._data(), **self.LEGACY_KNOBS}))
        out = io.StringIO()
        code = cli_main(
            ["run", "--spec", str(spec_path), "--store", str(tmp_path / "store"),
             "--max-workers", "1"],
            out,
        )
        assert code == 0, out.getvalue()
        assert "2 executed" in out.getvalue()

    def test_failed_row_with_attempts_loads_and_renders(self, tmp_path):
        store = tmp_path / "store"
        grid = TestFailureCli.GRID
        cli_main(["run", *grid, "--store", str(store), "--max-workers", "1"], io.StringIO())
        results = store / "results.jsonl"
        stored = [json.loads(line) for line in results.read_text().splitlines()]
        row = next(entry for entry in stored if entry["run_id"] == CRC)
        row.update(
            kind="failed", cycles=0, instructions=0, final_r0=0, finish_reason="error",
            error="RuntimeError: legacy fault", error_details="Traceback ...",
            attempts=3,
        )
        with open(results, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(row) + "\n")

        loaded = ResultStore(store)
        assert not loaded.quarantined()
        assert not loaded.get(row["fingerprint"]).ok
        rows = failure_rows(loaded)
        assert [(r["run_id"], r["error"]) for r in rows] == [(CRC, "RuntimeError: legacy fault")]

        out = io.StringIO()
        assert cli_main(["status", *grid, "--store", str(store)], out) == 2
        assert "1 failed, 1 pending" in out.getvalue()
        assert "failed %s: RuntimeError: legacy fault" % CRC in out.getvalue()

        out = io.StringIO()
        assert cli_main(["report", "--store", str(store)], out) == 0
        assert "failed runs" in out.getvalue()
        assert "legacy fault" in out.getvalue()


class TestFailureCli:
    GRID = [
        "--name", "cli-faulty",
        "--processors", "arm7-mini",
        "--workloads", "crc,compress",
        "--engines", "interpreted",
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

    def test_torn_tail_is_quarantined_served_around_and_sealed(self, tmp_path):
        store = str(tmp_path / "store")
        cli_main(
            ["run", *self.GRID, "--store", store, "--max-workers", "1"], io.StringIO()
        )
        # Tear a line to simulate a killed writer.
        results = tmp_path / "store" / "results.jsonl"
        with open(results, "a", encoding="utf-8") as handle:
            handle.write('{"half a line')

        out = io.StringIO()
        assert cli_main(["status", *self.GRID, "--store", store], out) == 0
        assert "warning: 1 corrupt line(s) quarantined" in out.getvalue()

        out = io.StringIO()
        assert cli_main(["report", "--store", store], out) == 0
        assert "warning: 1 corrupt line(s) quarantined" in out.getvalue()

        # Both intact runs are still served from the store.
        out = io.StringIO()
        code = cli_main(
            ["run", *self.GRID, "--store", store, "--max-workers", "1",
             "--expect-all-cached"],
            out,
        )
        assert code == 0, out.getvalue()

        # The next append seals the torn tail: the junk stays on its own
        # line and the records on either side of it still parse.
        target = ResultStore(store)
        target.append(replace(target.results()[0], fingerprint="f" * 64))
        lines = results.read_text(encoding="utf-8").splitlines()
        assert lines[-2] == '{"half a line'
        json.loads(lines[-3])
        assert json.loads(lines[-1])["fingerprint"] == "f" * 64
        reloaded = ResultStore(store)
        assert len(reloaded) == 3
        assert len(reloaded.quarantined()) == 1

    def test_store_from_before_1_17_is_ignored_and_its_runs_re_executed(self, tmp_path):
        store = tmp_path / "store"
        cli_main(
            ["run", *self.GRID, "--store", str(store), "--max-workers", "1"], io.StringIO()
        )
        # Rebuild the old layout by hand: every record in shards/000.jsonl,
        # next to the store.json meta and a lock sidecar, no results.jsonl.
        old = tmp_path / "old"
        (old / "shards").mkdir(parents=True)
        (store / "results.jsonl").rename(old / "shards" / "000.jsonl")
        (old / "shards" / "000.jsonl.lock").write_text("")
        (old / "store.json").write_text('{"layout_version": 1, "shard_count": 16}\n')

        out = io.StringIO()
        assert cli_main(["status", *self.GRID, "--store", str(old)], out) == 2
        assert "0 stored, 0 failed, 2 pending" in out.getvalue()
        assert "warning" not in out.getvalue()

        out = io.StringIO()
        code = cli_main(["run", *self.GRID, "--store", str(old), "--max-workers", "1"], out)
        assert code == 0
        assert "2 executed, 0 from store" in out.getvalue()
        # The old files stay where they were, untouched and unread.
        assert sorted(path.name for path in old.iterdir()) == [
            "results.jsonl", "shards", "store.json",
        ]
        assert len(ResultStore(old)) == 2
        code = cli_main(
            ["run", *self.GRID, "--store", str(old), "--max-workers", "1",
             "--expect-all-cached"],
            io.StringIO(),
        )
        assert code == 0

    def test_a_campaign_writes_only_results_jsonl(self, monkeypatch, tmp_path):
        self._install_flaky(monkeypatch, ["arm7-mini/crc@1/interpreted"])
        store = tmp_path / "store"
        for _ in range(2):  # a failing and then a succeeding invocation
            cli_main(
                ["run", *self.GRID, "--store", str(store), "--max-workers", "1",
                 "--keep-going"],
                io.StringIO(),
            )
            assert [path.name for path in store.iterdir()] == ["results.jsonl"]

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


#: An orchestrator whose two pool workers note their pid in ``argv[1]``
#: and then stall, so they are mid-run whenever it is killed.
_STALLING_ORCHESTRATOR = """
import os, sys, time
from repro.campaign import CampaignSpec, run_campaign
from repro.campaign import runner

def stall(run, campaign=""):
    open(os.path.join(sys.argv[1], str(os.getpid())), "w").close()
    time.sleep(60)

runner.execute_run = stall
run_campaign(
    CampaignSpec(
        name="orphans", processors=("arm7-mini",), workloads=("crc", "compress"),
        engines=("interpreted",),
    ),
    max_workers=2,
    mp_context="fork",
)
"""


def _running(pid):
    """True while ``pid`` runs; a zombie awaiting its reaper counts as gone."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    try:
        with open("/proc/%d/stat" % pid) as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return True


@needs_fork
def test_pool_workers_exit_when_the_orchestrator_is_killed(tmp_path):
    import repro

    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(repro.__file__)))
    orchestrator = subprocess.Popen(
        [sys.executable, "-c", _STALLING_ORCHESTRATOR, str(tmp_path)], env=env
    )
    workers = []
    try:
        deadline = time.monotonic() + 60
        while len(workers) < 2 and time.monotonic() < deadline:
            assert orchestrator.poll() is None, "the orchestrator exited early"
            time.sleep(0.05)
            workers = [int(name) for name in os.listdir(tmp_path)]
        assert len(workers) == 2

        orchestrator.send_signal(signal.SIGKILL)
        orchestrator.wait(timeout=10)
        deadline = time.monotonic() + 5
        while any(map(_running, workers)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert [pid for pid in workers if _running(pid)] == []
    finally:
        orchestrator.kill()
        orchestrator.wait(timeout=10)
        for pid in filter(_running, workers):  # outlived the orchestrator
            os.kill(pid, signal.SIGKILL)
