"""Unit tests of the campaign subsystem: spec, planner, store, aggregation, CLI.

The end-to-end worker-pool contract (bit-identical statistics, zero
re-execution on a warm store) lives in
``tests/integration/test_campaign_acceptance.py``; these tests pin the
pieces: fingerprint composition and sensitivity, deterministic grid
expansion with ISA-subset filtering, JSON-lines persistence, the
aggregation tables and the command-line interface.
"""

import dataclasses
import hashlib
import io
import json

import pytest

from repro.campaign import (
    ALL,
    CampaignError,
    CampaignSpec,
    EngineVariant,
    ResultStore,
    RunResult,
    RunSpec,
    cpi_table,
    plan_campaign,
    run_campaign,
    speedup_table,
    summarize,
    to_csv,
    to_json,
)
from repro.campaign.cli import main as cli_main
from repro.core import EngineOptions
from repro.processors import processor_names, strongarm_spec
from repro.workloads import workload_names


# ---------------------------------------------------------------------------
# CampaignSpec validation and interchange
# ---------------------------------------------------------------------------


class TestCampaignSpec:
    def test_validate_accepts_a_sensible_grid(self):
        spec = CampaignSpec(
            name="ok",
            processors=("strongarm",),
            workloads=("crc",),
            engines=("interpreted", "generated"),
        )
        assert spec.validate()

    @pytest.mark.parametrize(
        "kwargs,needle",
        [
            (dict(name=""), "no name"),
            (dict(name="x", scales=(0,)), "bad scale"),
            (dict(name="x", repeats=0), "bad repeats"),
            (dict(name="x", engines=("turbo",)), "unknown engine backend"),
            (dict(name="x", processors=(42,)), "bad processor-axis entry"),
            (
                dict(
                    name="x",
                    engines=(
                        EngineVariant("same", EngineOptions()),
                        EngineVariant("same", EngineOptions(backend="generated")),
                    ),
                ),
                "duplicate engine-variant labels",
            ),
        ],
    )
    def test_validate_rejects_bad_specs(self, kwargs, needle):
        with pytest.raises(CampaignError, match=needle):
            CampaignSpec(**kwargs).validate()

    def test_dict_round_trip_preserves_the_grid(self):
        spec = CampaignSpec(
            name="round-trip",
            processors=("strongarm", "xscale"),
            workloads=("crc",),
            scales=(1, 2),
            engines=(
                "interpreted",
                EngineVariant("tight", EngineOptions(stall_limit=500)),
            ),
            max_cycles=50_000,
            repeats=2,
            description="documented",
        )
        rebuilt = CampaignSpec.from_dict(spec.to_dict())
        assert plan_campaign(rebuilt).fingerprints == plan_campaign(spec).fingerprints
        assert rebuilt.description == "documented"

    def test_spec_dict_with_the_retired_utilisation_switch_plans_the_same_runs(self):
        """Engine entries written by ``to_dict`` before the retired switches went.

        They carry ``collect_utilization``, the Section 4 switches
        ``use_sorted_transitions``/``two_list_everywhere`` and the entry's
        ``use_decode_cache``.
        """

        def options(backend):
            return {
                "max_cycles": 10_000_000,
                "use_sorted_transitions": True,
                "two_list_everywhere": False,
                "collect_utilization": False,
                "stall_limit": 100_000,
                "backend": backend,
                "trace": None,
            }

        written = {
            "name": "pre-retirement",
            "processors": ["arm7-mini", "strongarm"],
            "workloads": ["crc"],
            "scales": [1],
            "engines": [
                {"label": backend, "options": options(backend), "use_decode_cache": True}
                for backend in ("interpreted", "generated")
            ],
            "repeats": 1,
            "description": "",
        }
        spec = CampaignSpec(
            name="pre-retirement",
            processors=("arm7-mini", "strongarm"),
            workloads=("crc",),
            engines=("interpreted", "generated"),
        )
        loaded = plan_campaign(CampaignSpec.from_dict(written))
        assert loaded.run_ids() == plan_campaign(spec).run_ids()
        assert loaded.fingerprints == plan_campaign(spec).fingerprints

    def test_enumeration_only_spec_is_valid(self):
        from repro.campaign import campaign_processors

        axis_only = CampaignSpec(name="axis", processors=(ALL,), workloads=())
        assert axis_only.validate()
        assert campaign_processors(axis_only) == processor_names()

    def test_to_dict_rejects_inline_pipeline_specs(self):
        spec = CampaignSpec(name="inline", processors=(strongarm_spec(),), workloads=("crc",))
        with pytest.raises(CampaignError, match="inline PipelineSpec"):
            spec.to_dict()


# ---------------------------------------------------------------------------
# Planner
# ---------------------------------------------------------------------------


class TestPlanner:
    def test_full_grid_crosses_every_axis_and_filters_isa_subsets(self):
        spec = CampaignSpec(
            name="grid", processors=(ALL,), workloads=(ALL,), engines=("interpreted",)
        )
        plan = plan_campaign(spec)
        # The example model supports three of the six kernels; everything
        # else is full-ISA.
        expected = (len(processor_names()) - 1) * len(workload_names()) + 3
        assert len(plan.runs) == expected
        assert len(plan.skipped) == 3
        assert all(reason for _, _, reason in plan.skipped)
        assert len(set(plan.run_ids())) == len(plan.runs)

    def test_grid_order_is_deterministic(self):
        spec = CampaignSpec(
            name="order",
            processors=("strongarm", "arm7-mini"),
            workloads=("crc", "compress"),
            scales=(1, 2),
            engines=("interpreted", "generated"),
            repeats=2,
        )
        assert plan_campaign(spec).run_ids() == plan_campaign(spec).run_ids()
        assert plan_campaign(spec).runs[0].run_id == "strongarm/crc@1/interpreted"
        assert len(plan_campaign(spec).runs) == 2 * 2 * 2 * 2 * 2

    def test_explicit_runs_are_appended(self):
        extra = RunSpec(processor="xscale", workload="go", scale=3, engine="generated")
        spec = CampaignSpec(
            name="explicit", processors=("strongarm",), workloads=("crc",), runs=(extra,)
        )
        plan = plan_campaign(spec)
        assert plan.runs[-1] is extra
        assert len(plan.runs) == 2

    def test_zero_run_plans_are_rejected(self):
        with pytest.raises(CampaignError, match="zero runs"):
            plan_campaign(CampaignSpec(name="empty", processors=(ALL,), workloads=()))

    def test_duplicate_runs_are_rejected(self):
        duplicate = RunSpec(processor="strongarm", workload="crc")
        spec = CampaignSpec(
            name="dup", processors=("strongarm",), workloads=("crc",), runs=(duplicate,)
        )
        with pytest.raises(CampaignError, match="duplicate run"):
            plan_campaign(spec)


# ---------------------------------------------------------------------------
# Fingerprints
# ---------------------------------------------------------------------------


class TestFingerprints:
    def test_fingerprint_is_stable(self):
        run = RunSpec(processor="strongarm", workload="crc", scale=2, engine="generated")
        assert run.fingerprint() == run.fingerprint()
        clone = RunSpec(processor="strongarm", workload="crc", scale=2, engine="generated")
        assert clone.fingerprint() == run.fingerprint()

    @pytest.mark.parametrize(
        "variation",
        [
            dict(workload="compress"),
            dict(scale=2),
            dict(engine="generated"),
            dict(max_cycles=1000),
            dict(max_instructions=1000),
            dict(repeat=1),
            dict(processor="xscale"),
        ],
    )
    def test_fingerprint_changes_with_every_axis(self, variation):
        base = dict(processor="strongarm", workload="crc", scale=1, engine="interpreted")
        assert (
            RunSpec(**dict(base, **variation)).fingerprint()
            != RunSpec(**base).fingerprint()
        )

    def test_fingerprint_is_memoized_per_instance(self):
        run = RunSpec(processor="strongarm", workload="crc")
        first = run.fingerprint()
        assert run.fingerprint() is first  # served from the memo
        assert RunSpec(processor="strongarm", workload="crc").fingerprint() == first

    def test_engine_options_feed_the_fingerprint_but_labels_do_not(self):
        base = RunSpec(processor="strongarm", workload="crc")
        relabelled = RunSpec(
            processor="strongarm",
            workload="crc",
            engine=EngineVariant("renamed", EngineOptions()),
        )
        assert relabelled.fingerprint() == base.fingerprint()
        reoptioned = RunSpec(
            processor="strongarm",
            workload="crc",
            engine=EngineVariant("renamed", EngineOptions(stall_limit=500)),
        )
        assert reoptioned.fingerprint() != base.fingerprint()

    def test_inline_spec_matches_registry_name(self):
        # "strongarm" resolves to the same PipelineSpec content, so the
        # store recognises the runs as the same experiment.
        named = RunSpec(processor="strongarm", workload="crc")
        inline = RunSpec(
            processor="inline-strongarm", workload="crc", processor_spec=strongarm_spec()
        )
        assert inline.fingerprint() == named.fingerprint()

    def test_fingerprint_keys_on_the_source_not_the_version(self, monkeypatch):
        import repro
        from repro.campaign import spec as campaign_spec

        base = RunSpec(processor="strongarm", workload="crc").fingerprint()
        monkeypatch.setattr(repro, "__version__", "0.0.0")
        assert RunSpec(processor="strongarm", workload="crc").fingerprint() == base
        monkeypatch.setattr(campaign_spec, "source_digest", lambda: "0" * 64)
        assert RunSpec(processor="strongarm", workload="crc").fingerprint() != base

    def test_source_digest_is_computed_once_per_process(self):
        from repro.campaign.spec import source_digest

        assert source_digest() is source_digest()
        assert len(source_digest()) == 64


# ---------------------------------------------------------------------------
# ResultStore
# ---------------------------------------------------------------------------


def _result(fingerprint="f" * 64, cycles=100, **overrides):
    fields = dict(
        fingerprint=fingerprint,
        campaign="test",
        run_id="strongarm/crc@1/interpreted",
        processor="strongarm",
        workload="crc",
        scale=1,
        engine="interpreted",
        backend="interpreted",
        repeat=0,
        cycles=cycles,
        instructions=50,
        final_r0=7,
        finish_reason="halt",
        wall_seconds=0.5,
        stats={"cycles": cycles},
        generation={"schedule_cache": "miss"},
    )
    fields.update(overrides)
    return RunResult(**fields)


class TestResultStore:
    def test_round_trip_through_disk(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        result = _result()
        store.append(result)

        reloaded = ResultStore(tmp_path / "store")
        assert result.fingerprint in reloaded
        loaded = reloaded.get(result.fingerprint)
        assert loaded.cycles == result.cycles
        assert loaded.stats == result.stats
        assert loaded.cached is False

    def test_last_write_wins_on_duplicate_fingerprints(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.append(_result(cycles=100))
        store.append(_result(cycles=200))
        reloaded = ResultStore(tmp_path / "store")
        assert len(reloaded) == 1
        assert reloaded.get("f" * 64).cycles == 200

    def test_results_keep_first_position_with_last_wins_values(self, tmp_path):
        # The documented order contract: a reload returns records in append
        # order, so report/CSV/JSON rows never depend on fingerprint hashes,
        # and duplicate fingerprints update the record in place (values from
        # the last write) without moving it from its first-appended position.
        store = ResultStore(tmp_path / "store")
        fingerprints = [hashlib.sha256(b"r%d" % index).hexdigest() for index in range(6)]
        for index, fingerprint in enumerate(fingerprints):
            store.append(_result(fingerprint=fingerprint, cycles=index, run_id="r%d" % index))
        store.append(_result(fingerprint=fingerprints[0], cycles=999, run_id="r0"))
        reloaded = ResultStore(tmp_path / "store")
        assert reloaded.fingerprints() == tuple(fingerprints)
        assert [result.run_id for result in reloaded.results()] == ["r%d" % index for index in range(6)]
        assert [result.cycles for result in reloaded.results()] == [999, 1, 2, 3, 4, 5]

    def test_missing_directory_reads_as_empty(self, tmp_path):
        store = ResultStore(tmp_path / "nowhere")
        assert len(store) == 0
        assert store.results() == ()

    def test_cached_flag_is_never_persisted(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        result = _result()
        result.cached = True
        store.append(result)
        assert '"cached"' not in (tmp_path / "store" / "results.jsonl").read_text()


# ---------------------------------------------------------------------------
# Runner (in-process path; the pool path is integration-tested)
# ---------------------------------------------------------------------------


TINY = CampaignSpec(
    name="tiny",
    processors=("arm7-mini",),
    workloads=("crc",),
    engines=("interpreted",),
)


class TestRunner:
    def test_serial_campaign_persists_and_then_serves_from_store(self, tmp_path):
        seen = []
        report = run_campaign(
            TINY, store=tmp_path / "store", max_workers=1, progress=seen.append
        )
        assert report.executed == 1 and report.cached == 0
        assert len(seen) == 1 and not seen[0].cached
        assert report.results[0].finish_reason == "halt"
        assert report.results[0].generation["backend"] == "interpreted"

        again = run_campaign(TINY, store=tmp_path / "store", max_workers=1)
        assert again.executed == 0 and again.cached == 1
        assert again.results[0].cached
        assert again.results[0].cycles == report.results[0].cycles

    def test_store_path_accepts_plain_strings(self, tmp_path):
        report = run_campaign(TINY, store=str(tmp_path / "store"), max_workers=1)
        assert (tmp_path / "store" / "results.jsonl").read_text()
        assert report.store_path == str(tmp_path / "store")

    def test_memory_only_campaign_runs_without_a_store(self):
        report = run_campaign(TINY, store=None, max_workers=1)
        assert report.executed == 1
        assert report.store_path is None

    def test_plan_rejects_explicit_runs_with_unknown_names(self):
        from repro.core.exceptions import UnknownNameError

        broken = CampaignSpec(
            name="broken",
            processors=("arm7-mini",),
            workloads=("crc",),
            runs=(RunSpec(processor="arm7-mini", workload="no-such-kernel"),),
        )
        with pytest.raises(UnknownNameError, match="no-such-kernel"):
            plan_campaign(broken)

    def test_failing_run_raises_a_collected_campaign_error(self, tmp_path):
        from repro.describe import PipelineSpec, StageSpec, linear_path

        # Fingerprints fine (pure data) but blows up at elaboration time on
        # the worker: the hook name does not exist in the ARM semantics.
        bad_model = PipelineSpec(
            name="bad-hooks",
            stages=(StageSpec("FD"), StageSpec("EX")),
            paths=(
                linear_path("alu", ("FD", "EX"), hooks={"end": "no.such.hook"}),
            ),
        )
        broken = CampaignSpec(
            name="broken",
            processors=("arm7-mini",),
            workloads=("crc",),
            engines=("interpreted",),
            runs=(
                RunSpec(processor="bad-hooks", workload="crc", processor_spec=bad_model),
            ),
        )
        with pytest.raises(CampaignError, match="bad-hooks"):
            run_campaign(broken, store=tmp_path / "store", max_workers=1)
        # The good run completed and was persisted before the raise, and the
        # failing run landed as a "failed" record with its traceback.
        store = ResultStore(tmp_path / "store")
        assert len(store) == 2
        kinds = {result.run_id: result for result in store.results()}
        assert kinds["arm7-mini/crc@1/interpreted"].ok
        failed = kinds["bad-hooks/crc@1/interpreted"]
        assert not failed.ok
        assert failed.finish_reason == "error"
        assert "no.such.hook" in failed.error_details

    def test_budgeted_run_stops_at_the_cycle_budget(self):
        budgeted = CampaignSpec(
            name="budget",
            processors=("arm7-mini",),
            workloads=("crc",),
            engines=("interpreted",),
            max_cycles=100,
        )
        report = run_campaign(budgeted, store=None, max_workers=1)
        assert report.results[0].cycles == 100
        assert report.results[0].finish_reason != "halt"



# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


class TestAggregation:
    def _results(self):
        return [
            _result(
                fingerprint="a" * 64,
                cycles=100,
                wall_seconds=1.0,
                run_id="strongarm/crc@1/interpreted",
            ),
            _result(
                fingerprint="b" * 64,
                cycles=100,
                wall_seconds=0.25,
                engine="generated",
                backend="generated",
                run_id="strongarm/crc@1/generated",
            ),
        ]

    def test_summarize_reduces_repeats_and_keeps_simulated_quantities(self):
        results = self._results() + [
            _result(fingerprint="c" * 64, cycles=100, wall_seconds=2.0, repeat=1)
        ]
        rows = summarize(results)
        by_engine = {row["engine"]: row for row in rows}
        assert by_engine["interpreted"]["runs"] == 2
        assert by_engine["interpreted"]["cycles"] == 100
        # Best throughput: the 1.0s repeat beats the 2.0s repeat.
        assert by_engine["interpreted"]["best_kcycles_per_sec"] == pytest.approx(0.1)
        assert by_engine["interpreted"]["mean_wall_seconds"] == pytest.approx(1.5)

    def test_multi_scale_results_summarize_per_scale(self):
        # Regression: different scales are different simulations; the
        # default grouping must keep them apart, not flag them as
        # non-deterministic.
        results = [
            _result(fingerprint="a" * 64, cycles=100, scale=1),
            _result(
                fingerprint="b" * 64,
                cycles=200,
                scale=2,
                run_id="strongarm/crc@2/interpreted",
            ),
        ]
        rows = summarize(results)
        assert {row["scale"]: row["cycles"] for row in rows} == {1: 100, 2: 200}
        assert {row["scale"] for row in cpi_table(results)} == {1, 2}

    def test_summarize_rejects_non_deterministic_groups(self):
        results = [
            _result(fingerprint="a" * 64, cycles=100),
            _result(fingerprint="b" * 64, cycles=101, repeat=1),
        ]
        with pytest.raises(ValueError, match="non-deterministic"):
            summarize(results)

    def test_speedup_table_computes_the_figure10_ratio(self):
        rows = speedup_table(self._results())
        assert len(rows) == 1
        assert rows[0]["speedup"] == pytest.approx(4.0)

    def test_speedup_table_rejects_cycle_disagreement(self):
        results = self._results()
        results[1].cycles = 999
        with pytest.raises(ValueError, match="disagree on simulated cycles"):
            speedup_table(results)

    def test_cpi_table_shape(self):
        rows = cpi_table(self._results())
        assert {row["engine"] for row in rows} == {"interpreted", "generated"}
        assert all(row["cpi"] == pytest.approx(2.0) for row in rows)

    def test_csv_and_json_export(self, tmp_path):
        results = self._results()
        count = to_csv(results, tmp_path / "out.csv")
        assert count == 2
        header = (tmp_path / "out.csv").read_text().splitlines()[0]
        assert "processor" in header and "fingerprint" in header

        text = to_json(results, tmp_path / "out.json")
        payload = json.loads(text)
        assert len(payload) == 2
        assert json.loads((tmp_path / "out.json").read_text()) == payload

    def test_export_of_nothing_is_an_error(self, tmp_path):
        with pytest.raises(ValueError, match="no results"):
            to_csv([], tmp_path / "out.csv")


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


class TestCli:
    GRID = [
        "--name",
        "cli",
        "--processors",
        "arm7-mini",
        "--workloads",
        "crc",
        "--engines",
        "interpreted",
    ]

    @pytest.mark.parametrize(
        "legacy_backend,compilation",
        [("compiled", {"plan_cache": "hit"}), ("batched", {"codegen_cache": "memory"})],
    )
    def test_run_status_report_round_trip(self, tmp_path, legacy_backend, compilation):
        store = str(tmp_path / "store")
        out = io.StringIO()
        assert cli_main(["run", *self.GRID, "--store", store, "--max-workers", "1"], out) == 0
        assert "1 executed" in out.getvalue()

        out = io.StringIO()
        assert cli_main(["status", *self.GRID, "--store", store], out) == 0
        assert "0 pending" in out.getvalue()

        # A row written before its backend was removed must still load and
        # render.
        legacy = ResultStore(store)
        legacy.append(
            dataclasses.replace(
                legacy.results()[0],
                fingerprint="c" * 64,
                engine=legacy_backend,
                backend=legacy_backend,
                run_id="arm7-mini/crc@1/" + legacy_backend,
                generation={"schedule_cache": "hit", "compilation": compilation},
            )
        )

        out = io.StringIO()
        csv_path = str(tmp_path / "rows.csv")
        assert cli_main(["report", "--store", store, "--csv", csv_path], out) == 0
        assert "arm7-mini" in out.getvalue()
        assert legacy_backend in out.getvalue()
        assert legacy_backend in (tmp_path / "rows.csv").read_text()

    def test_expect_all_cached_distinguishes_cold_and_warm_stores(self, tmp_path):
        store = str(tmp_path / "store")
        cold = cli_main(
            ["run", *self.GRID, "--store", store, "--max-workers", "1", "--expect-all-cached"],
            io.StringIO(),
        )
        assert cold == 1  # executed a run although everything was expected cached
        warm = cli_main(
            ["run", *self.GRID, "--store", store, "--max-workers", "1", "--expect-all-cached"],
            io.StringIO(),
        )
        assert warm == 0

    def test_status_reports_pending_runs_with_exit_code(self, tmp_path):
        out = io.StringIO()
        code = cli_main(["status", *self.GRID, "--store", str(tmp_path / "empty")], out)
        assert code == 2
        assert "pending arm7-mini/crc@1/interpreted" in out.getvalue()

    def test_report_on_an_empty_store_fails_cleanly(self, tmp_path):
        out = io.StringIO()
        assert cli_main(["report", "--store", str(tmp_path / "empty")], out) == 1
        assert "no results" in out.getvalue()

    @pytest.mark.parametrize("command", ["status", "report"])
    def test_reading_a_missing_store_leaves_no_directory_behind(self, tmp_path, command):
        store = tmp_path / "nowhere"
        grid = self.GRID if command == "status" else []
        cli_main([command, *grid, "--store", str(store)], io.StringIO())
        assert not store.exists()

    def test_help_lists_exactly_run_status_and_report(self, capsys):
        with pytest.raises(SystemExit) as raised:
            cli_main(["--help"], io.StringIO())
        assert raised.value.code == 0
        assert "{run,status,report}" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv",
        [
            ["compact"],
            ["fsck"],
            ["report", "--metrics"],
            ["report", "--metrics-json", "metrics.json"],
        ],
        ids=["compact", "fsck", "report-metrics", "report-metrics-json"],
    )
    def test_retired_commands_and_options_are_rejected(self, tmp_path, capsys, argv):
        store = tmp_path / "store"
        cli_main(["run", *self.GRID, "--store", str(store), "--max-workers", "1"], io.StringIO())
        with pytest.raises(SystemExit) as raised:
            cli_main([*argv, "--store", str(store)], io.StringIO())
        assert raised.value.code == 2
        error = capsys.readouterr().err
        assert "invalid choice" in error or "unrecognized arguments" in error
        assert sorted(path.name for path in store.iterdir()) == ["results.jsonl"]

    def test_run_campaign_takes_no_metrics_parameter(self):
        import inspect

        assert "metrics" not in inspect.signature(run_campaign).parameters

    def test_spec_file_round_trip(self, tmp_path):
        spec_path = tmp_path / "campaign.json"
        spec_path.write_text(
            json.dumps(
                CampaignSpec(
                    name="from-file",
                    processors=("arm7-mini",),
                    workloads=("crc",),
                    engines=("interpreted",),
                ).to_dict()
            )
        )
        out = io.StringIO()
        code = cli_main(
            [
                "run",
                "--spec",
                str(spec_path),
                "--store",
                str(tmp_path / "store"),
                "--max-workers",
                "1",
            ],
            out,
        )
        assert code == 0
        assert "'from-file'" in out.getvalue()

    @pytest.mark.parametrize("command", ["run", "status"])
    def test_bad_processor_name_fails_with_suggestion(self, tmp_path, command):
        out = io.StringIO()
        code = cli_main(
            [
                command,
                "--processors", "strongam",
                "--workloads", "crc",
                "--store", str(tmp_path / "store"),
            ],
            out,
        )
        assert code == 1
        message = out.getvalue()
        assert "unknown processor 'strongam'" in message
        assert "did you mean 'strongarm'" in message
        assert "Traceback" not in message

    @pytest.mark.parametrize("command", ["run", "status"])
    def test_bad_workload_name_fails_with_suggestion(self, tmp_path, command):
        out = io.StringIO()
        code = cli_main(
            [
                command,
                "--processors", "strongarm",
                "--workloads", "blowfsh",
                "--store", str(tmp_path / "store"),
            ],
            out,
        )
        assert code == 1
        message = out.getvalue()
        assert "unknown workload 'blowfsh'" in message
        assert "did you mean 'blowfish'" in message

    def test_bad_name_inside_spec_file_also_gets_suggestions(self, tmp_path):
        spec_path = tmp_path / "campaign.json"
        spec_path.write_text(
            json.dumps({"name": "typo", "processors": ["xsale"], "workloads": ["crc"]})
        )
        out = io.StringIO()
        code = cli_main(
            ["run", "--spec", str(spec_path), "--store", str(tmp_path / "store")], out
        )
        assert code == 1
        assert "did you mean 'xscale'" in out.getvalue()

    def test_missing_spec_file_fails_cleanly(self, tmp_path):
        out = io.StringIO()
        code = cli_main(
            ["run", "--spec", str(tmp_path / "nope.json"), "--store", str(tmp_path / "s")],
            out,
        )
        assert code == 1
        assert "cannot read --spec file" in out.getvalue()

    def test_bad_engine_name_fails_with_suggestion(self, tmp_path):
        out = io.StringIO()
        code = cli_main(
            [
                "run",
                "--processors", "strongarm",
                "--workloads", "crc",
                "--engines", "generatd",
                "--store", str(tmp_path / "store"),
            ],
            out,
        )
        assert code == 1
        message = out.getvalue()
        assert "unknown engine backend 'generatd'" in message
        assert "did you mean 'generated'" in message
        assert "Traceback" not in message

    def _spec_file(self, tmp_path, options):
        spec_path = tmp_path / "campaign.json"
        spec_path.write_text(json.dumps({
            "name": "options",
            "processors": ["arm7-mini"],
            "workloads": ["crc"],
            "engines": [{"label": "interpreted", "options": options}],
        }))
        return str(spec_path)

    def test_unknown_engine_option_in_spec_file_fails_with_suggestion(self, tmp_path):
        spec_path = self._spec_file(tmp_path, {"backend": "interpreted", "stall_limt": 5})
        out = io.StringIO()
        code = cli_main(["run", "--spec", spec_path, "--store", str(tmp_path / "store")], out)
        assert code == 1
        message = out.getvalue()
        assert message.startswith("error: ")
        assert "unknown engine option 'stall_limt'" in message
        assert "did you mean 'stall_limit'" in message
        assert "Traceback" not in message
        assert not (tmp_path / "store").exists()

    def test_legacy_lanes_option_in_spec_file_is_ignored(self, tmp_path):
        """Spec files from the lane-batched era carry ``"lanes": 8``."""
        spec_path = self._spec_file(tmp_path, {"backend": "interpreted", "lanes": 8})
        store = str(tmp_path / "store")
        out = io.StringIO()
        assert cli_main(["status", "--spec", spec_path, "--store", store], out) == 2
        assert "pending arm7-mini/crc@1/interpreted" in out.getvalue()
        out = io.StringIO()
        assert cli_main(["run", "--spec", spec_path, "--store", store, "--max-workers", "1"], out) == 0
        assert "1 executed" in out.getvalue()

    def test_spec_file_with_the_retired_section4_switches_runs(self, tmp_path):
        """Spec files written while ``use_sorted_transitions`` and friends existed."""
        spec_path = tmp_path / "campaign.json"
        spec_path.write_text(json.dumps({
            "name": "section4",
            "processors": ["arm7-mini"],
            "workloads": ["crc"],
            "engines": [{
                "label": "interpreted",
                "options": {
                    "backend": "interpreted",
                    "use_sorted_transitions": False,
                    "two_list_everywhere": True,
                },
                "use_decode_cache": False,
            }],
        }))
        out = io.StringIO()
        code = cli_main(
            ["run", "--spec", str(spec_path), "--store", str(tmp_path / "store"), "--max-workers", "1"],
            out,
        )
        assert code == 0, out.getvalue()
        assert "1 executed" in out.getvalue()

    def test_non_integer_scales_fail_cleanly(self, tmp_path):
        out = io.StringIO()
        code = cli_main(
            [
                "run",
                "--processors", "strongarm",
                "--workloads", "crc",
                "--scales", "x2",
                "--store", str(tmp_path / "store"),
            ],
            out,
        )
        assert code == 1
        assert "bad --scales entry 'x2'" in out.getvalue()
