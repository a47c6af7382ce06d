"""Parallel, content-addressed simulation campaigns.

Where :mod:`repro.describe` makes processor *models* declarative,
this package makes *experiments* declarative: a
:class:`CampaignSpec` describes a grid of runs — processors × workloads ×
scales × engine variants × repeats — which the planner expands into
content-fingerprinted :class:`RunSpec`s, the runner executes on a
``multiprocessing`` worker pool, and the :class:`ResultStore` persists as
sharded JSON lines keyed by fingerprint.  Re-running a campaign skips
every run the store already holds, so campaigns are incremental and
resumable, and an aggregation API (:mod:`repro.campaign.aggregate`) turns
stored results into the paper's tables (CPI, per-level cache miss rates,
throughput, generated-over-interpreted speedup) plus CSV/JSON exports.

The layer is fault-tolerant end to end: store appends are locked and
fsync'd, corrupt lines are quarantined instead of raised, failing runs
are retried with backoff and persist as ``"failed"`` records when their
budget runs out, and ``compact``/``fsck`` keep long-lived stores healthy.

The CLI mirrors the API::

    python -m repro.campaign run --processors all --workloads crc,compress \\
        --engines interpreted,generated --store campaign-store --max-workers 4
    python -m repro.campaign status --store campaign-store
    python -m repro.campaign report --store campaign-store --csv results.csv
    python -m repro.campaign compact --store campaign-store
    python -m repro.campaign fsck --store campaign-store
"""

from repro.campaign.aggregate import (
    cache_table,
    cpi_table,
    failure_rows,
    group_results,
    render,
    result_rows,
    speedup_table,
    summarize,
    to_csv,
    to_json,
)
from repro.campaign.planner import (
    CampaignPlan,
    campaign_processors,
    plan_campaign,
)
from repro.campaign.runner import (
    CampaignReport,
    build_run_processor,
    execute_run,
    run_campaign,
    run_single,
)
from repro.campaign.spec import (
    ALL,
    CampaignError,
    CampaignSpec,
    EngineVariant,
    RunSpec,
    engine_variant,
)
from repro.campaign.store import (
    CompactionReport,
    QuarantinedLine,
    ResultStore,
    RunResult,
    shard_index,
)

__all__ = [
    "ALL",
    "CampaignError",
    "CampaignPlan",
    "CampaignReport",
    "CampaignSpec",
    "CompactionReport",
    "EngineVariant",
    "QuarantinedLine",
    "ResultStore",
    "RunResult",
    "RunSpec",
    "build_run_processor",
    "cache_table",
    "campaign_processors",
    "cpi_table",
    "engine_variant",
    "execute_run",
    "failure_rows",
    "group_results",
    "plan_campaign",
    "render",
    "result_rows",
    "run_campaign",
    "run_single",
    "shard_index",
    "speedup_table",
    "summarize",
    "to_csv",
    "to_json",
]
