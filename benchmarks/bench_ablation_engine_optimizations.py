"""Ablation — the engine optimisations of Section 4 and the decode cache.

The paper attributes the speed of its generated simulators to (1) the
precomputed per-(place, type) sorted transition lists, (2) evaluating places
in reverse topological order so only feedback places need two-list storage,
and (3) decoding instructions once and caching the decoded tokens.  The
configurations are the engine axis of a declarative
:class:`~repro.campaign.CampaignSpec` — one
:class:`~repro.campaign.EngineVariant` per knob — measured on the
StrongARM model with each optimisation disabled in turn, with a hard
assertion that the simulated behaviour never changes (they are pure
performance knobs).
"""

import pytest

from repro.campaign import CampaignSpec, EngineVariant, execute_run, plan_campaign
from repro.core import EngineOptions

from conftest import BENCH_SCALE, record_result

#: One engine variant per Section 4 knob, plus the generated-simulator fast
#: path (repro.codegen); the equality assertion below doubles as a
#: differential check of the two backends.
ABLATION_CAMPAIGN = CampaignSpec(
    name="ablation",
    processors=("strongarm",),
    workloads=("crc",),
    scales=(BENCH_SCALE,),
    engines=(
        EngineVariant("all-optimisations", EngineOptions()),
        EngineVariant("no-sorted-transitions", EngineOptions(use_sorted_transitions=False)),
        EngineVariant("two-list-everywhere", EngineOptions(two_list_everywhere=True)),
        EngineVariant("no-decode-cache", EngineOptions(), use_decode_cache=False),
        EngineVariant("generated-backend", EngineOptions(backend="generated")),
    ),
    description="Section 4 ablation: each engine optimisation disabled in turn",
)
ABLATION_PLAN = plan_campaign(ABLATION_CAMPAIGN)

_reference = {}


@pytest.mark.parametrize(
    "run", ABLATION_PLAN.runs, ids=[run.engine.label for run in ABLATION_PLAN.runs]
)
def test_ablation_engine_optimizations(benchmark, run):
    result = benchmark.pedantic(
        lambda: execute_run(run, campaign=ABLATION_CAMPAIGN.name), rounds=1, iterations=1
    )

    row = {
        "configuration": run.engine.label,
        "cycles": result.cycles,
        "kcycles_per_sec": result.cycles_per_second / 1e3,
        "r0": hex(result.final_r0),
    }
    benchmark.extra_info.update({k: v for k, v in row.items() if k != "r0"})
    record_result("Ablation - engine optimisations (Section 4)", row)

    key = (result.cycles, result.instructions, result.final_r0)
    reference = _reference.setdefault("key", key)
    assert key == reference, "disabling an optimisation changed simulated behaviour"
