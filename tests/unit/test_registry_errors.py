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


#: Backends that no longer exist, with the exact message each must fail with.
REMOVED_HINTS = {
    "compiled": "the compiled backend was removed; use 'generated' (same statistics, faster)",
    "batched": "the batched backend was removed; use 'generated' (same statistics, same speed)",
}

removed_backends = pytest.mark.parametrize("removed", sorted(REMOVED_HINTS))


class TestBackendNames:
    @removed_backends
    def test_removed_backend_names_its_replacement(self, removed):
        from repro.processors import build_processor

        with pytest.raises(ValueError) as caught:
            build_processor("strongarm", backend=removed)
        assert str(caught.value) == REMOVED_HINTS[removed]

    def test_unknown_backend_suggests_close_match(self):
        with pytest.raises(ValueError, match="did you mean 'generated'"):
            EngineOptions(backend="generatd")
        with pytest.raises(ValueError, match="unknown engine backend 'jit'") as caught:
            EngineOptions(backend="jit")
        assert "did you mean" not in str(caught.value)

    @removed_backends
    def test_replace_revalidates_the_backend(self, removed):
        with pytest.raises(ValueError) as caught:
            dataclasses.replace(EngineOptions(), backend=removed)
        assert str(caught.value) == REMOVED_HINTS[removed]

    @removed_backends
    def test_campaign_cli_engines_flag(self, tmp_path, removed):
        from repro.campaign.cli import main

        out = io.StringIO()
        code = main(
            ["run", "--processors", "arm7-mini", "--workloads", "crc",
             "--engines", "interpreted," + removed, "--store", str(tmp_path / "s")],
            out=out,
        )
        assert code == 1
        assert REMOVED_HINTS[removed] in out.getvalue()
        assert "Traceback" not in out.getvalue()
        assert not (tmp_path / "s").exists()

    @removed_backends
    @pytest.mark.parametrize("as_dict", [False, True], ids=["name", "options"])
    def test_campaign_cli_spec_file(self, tmp_path, removed, as_dict):
        from repro.campaign.cli import main

        engine = {"label": "old", "options": {"backend": removed}} if as_dict else removed
        spec = tmp_path / "campaign.json"
        spec.write_text(json.dumps(
            {"name": "legacy", "processors": ["arm7-mini"], "workloads": ["crc"],
             "engines": [engine]}
        ))
        out = io.StringIO()
        code = main(["run", "--spec", str(spec), "--store", str(tmp_path / "s")], out=out)
        assert code == 1
        assert REMOVED_HINTS[removed] in out.getvalue()
        assert "Traceback" not in out.getvalue()
        assert not (tmp_path / "s").exists()

    @removed_backends
    def test_analyze_verify_backends_flag(self, removed):
        from repro.analyze.cli import main

        out = io.StringIO()
        code = main(["verify", "example", "--backends", removed], out=out)
        assert code == 1
        assert out.getvalue() == "error: %s\n" % REMOVED_HINTS[removed]
