"""Registry ergonomics: did-you-mean suggestions for models, kernels and backends."""

import dataclasses
import io
import json

import pytest

from repro.core.engine import EngineOptions
from repro.core.exceptions import UnknownNameError
from repro.processors.registry import get_entry
from repro.workloads.kernels import kernel_source


class TestUnknownNameSuggestions:
    def test_processor_registry_suggests_close_matches(self):
        with pytest.raises(UnknownNameError) as caught:
            get_entry("strongam")
        error = caught.value
        assert "strongarm" in error.suggestions
        assert error.suggestions[0] == "strongarm"
        assert "did you mean 'strongarm'" in str(error)

    def test_workload_registry_suggests_close_matches(self):
        with pytest.raises(UnknownNameError) as caught:
            kernel_source("blowfsh")
        error = caught.value
        assert "blowfish" in error.suggestions
        assert "did you mean 'blowfish'?" in str(error)

    def test_no_suggestion_for_distant_names(self):
        with pytest.raises(UnknownNameError) as caught:
            get_entry("zzzzzz")
        error = caught.value
        assert error.suggestions == ()
        assert "did you mean" not in str(error)
        # The full listing is still there for cold lookups.
        assert "strongarm" in str(error)

    def test_non_string_lookup_does_not_crash_suggestions(self):
        with pytest.raises(UnknownNameError) as caught:
            get_entry(42)
        assert caught.value.suggestions == ()

    def test_campaign_planner_surfaces_suggestions(self):
        from repro.campaign import CampaignSpec, plan_campaign

        with pytest.raises(UnknownNameError, match="did you mean 'xscale'"):
            plan_campaign(
                CampaignSpec(name="typo", processors=("xsale",), workloads=("crc",))
            )


REMOVED_HINT = "the compiled backend was removed; use 'generated' (same statistics, faster)"


class TestBackendNames:
    def test_removed_backend_names_its_replacement(self):
        from repro.processors import build_processor

        with pytest.raises(ValueError) as caught:
            build_processor("strongarm", backend="compiled")
        assert str(caught.value) == REMOVED_HINT

    def test_unknown_backend_suggests_close_match(self):
        with pytest.raises(ValueError, match="did you mean 'generated'"):
            EngineOptions(backend="generatd")
        with pytest.raises(ValueError, match="unknown engine backend 'jit'") as caught:
            EngineOptions(backend="jit")
        assert "did you mean" not in str(caught.value)

    def test_replace_revalidates_the_backend(self):
        with pytest.raises(ValueError, match="compiled backend was removed"):
            dataclasses.replace(EngineOptions(), backend="compiled")

    def test_campaign_cli_engines_flag(self, tmp_path):
        from repro.campaign.cli import main

        out = io.StringIO()
        code = main(
            ["run", "--processors", "arm7-mini", "--workloads", "crc",
             "--engines", "interpreted,compiled", "--store", str(tmp_path / "s")],
            out=out,
        )
        assert code == 1
        assert REMOVED_HINT in out.getvalue()
        assert not (tmp_path / "s").exists()

    @pytest.mark.parametrize("engine", ["compiled", {"label": "c", "options": {"backend": "compiled"}}])
    def test_campaign_cli_spec_file(self, tmp_path, engine):
        from repro.campaign.cli import main

        spec = tmp_path / "campaign.json"
        spec.write_text(json.dumps(
            {"name": "legacy", "processors": ["arm7-mini"], "workloads": ["crc"],
             "engines": [engine]}
        ))
        out = io.StringIO()
        code = main(["run", "--spec", str(spec), "--store", str(tmp_path / "s")], out=out)
        assert code == 1
        assert REMOVED_HINT in out.getvalue()
        assert not (tmp_path / "s").exists()

    def test_analyze_verify_backends_flag(self):
        from repro.analyze.cli import main

        out = io.StringIO()
        code = main(["verify", "example", "--backends", "compiled"], out=out)
        assert code == 1
        assert out.getvalue() == "error: %s\n" % REMOVED_HINT
