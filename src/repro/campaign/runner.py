"""Campaign execution: worker-pool orchestration with incremental skip.

:func:`execute_run` performs exactly the steps of a direct
:func:`repro.analysis.metrics.run_processor` call — build the model from
its description, load the workload, run to completion — so per-run
statistics are bit-identical whether a run executes inline, on a worker,
or was stored by an earlier campaign.  :func:`run_campaign` plans a
:class:`~repro.campaign.spec.CampaignSpec`, serves every already-stored
fingerprint from the :class:`~repro.campaign.store.ResultStore`, and fans
the remainder out over a ``multiprocessing`` pool (``max_workers=1`` runs
in-process, for determinism hunting and debuggers).

Workers receive only plain-data :class:`~repro.campaign.spec.RunSpec`s and
rebuild processors from their specs, so nothing unpicklable ever crosses
the process boundary and any start method works.  The platform default is
used unless ``mp_context`` overrides it; under a "spawn" start method the
orchestrating ``__main__`` must be importable (the standard
multiprocessing guard), which the CLI and pytest entry points are.

Failures are first-class, not fatal.  A failing run is isolated and
retried up to ``CampaignSpec.max_retries`` times with exponential backoff
(``retry_backoff_seconds * 2**round`` between retry rounds).  A run that
exhausts its budget becomes a ``"failed"`` record in the store — error
and traceback included, visible in ``status``/``report`` — and the
campaign raises a collected :class:`CampaignError`: immediately after the
in-flight round by default, or only after the whole grid (and every
retry) finished when ``keep_going=True`` (CLI ``--keep-going``).  Failed
store records never satisfy a cache lookup, so re-running the campaign
retries exactly the failed fingerprints and a success overwrites the
failure row.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
import sys
import time
import traceback
from dataclasses import dataclass

from repro.campaign.planner import plan_campaign
from repro.campaign.spec import CampaignError, RunSpec
from repro.campaign.store import KIND_FAILED, ResultStore, RunResult
from repro.observe.metrics import (
    MetricsRegistry,
    merge_cumulative,
    read_metrics_json,
    write_metrics_json,
)

#: Store-level counters kept *cumulative* across campaign invocations when
#: ``metrics.json`` is rewritten next to the result store.
CUMULATIVE_STORE_METRICS = (
    "campaign.store.hits",
    "campaign.store.misses",
    "campaign.store.saved_wall_seconds",
    "campaign.store.lock_wait_seconds",
)

METRICS_FILENAME = "metrics.json"


def build_run_processor(run):
    """Build the processor a :class:`RunSpec` describes, ready to load a program."""
    options = run.engine.resolved_options()
    if run.processor_spec is not None:
        from repro.describe.elaborate import elaborate

        return elaborate(
            run.processor_spec,
            engine_options=options,
            use_decode_cache=run.engine.use_decode_cache,
        )
    from repro.processors.registry import build_processor

    return build_processor(
        run.processor,
        engine_options=options,
        use_decode_cache=run.engine.use_decode_cache,
    )


def _result_for(run, processor, wall, campaign):
    """Assemble the :class:`RunResult` for one completed run."""
    stats = processor.stats
    summary = stats.summary()
    summary["retired_by_class"] = dict(stats.retired_by_class)
    return RunResult(
        fingerprint=run.fingerprint(),
        campaign=campaign,
        run_id=run.run_id,
        processor=run.processor,
        workload=run.workload,
        scale=run.scale,
        engine=run.engine.label,
        backend=run.engine.backend,
        repeat=run.repeat,
        cycles=stats.cycles,
        instructions=stats.instructions,
        final_r0=processor.register(0),
        finish_reason=stats.finish_reason,
        wall_seconds=wall,
        stats=summary,
        generation=processor.generation_report.summary(),
        memory=processor.memory.statistics_summary(),
        worker_pid=os.getpid(),
    )


def execute_run(run, campaign=""):
    """Execute one run and return its structured :class:`RunResult`.

    This is the single execution path of the subsystem: the worker pool,
    the in-process fallback and the benchmark harness all call it, which
    is what keeps campaign statistics bit-identical to direct
    ``run_processor`` calls.
    """
    from repro.workloads.registry import get_workload

    processor = build_run_processor(run)
    workload = get_workload(run.workload, scale=run.scale)
    processor.load_program(workload.program)
    start = time.perf_counter()
    processor.run(max_cycles=run.max_cycles, max_instructions=run.max_instructions)
    wall = time.perf_counter() - start
    return _result_for(run, processor, wall, campaign)


@dataclass
class _RunFailure:
    """A worker-side exception, reduced to picklable data."""

    run_id: str
    error: str
    details: str


def _failure_result(run, failure, campaign, attempts):
    """The persistent ``"failed"`` store record for an exhausted run."""
    return RunResult(
        fingerprint=run.fingerprint(),
        campaign=campaign,
        run_id=run.run_id,
        processor=run.processor,
        workload=run.workload,
        scale=run.scale,
        engine=run.engine.label,
        backend=run.engine.backend,
        repeat=run.repeat,
        cycles=0,
        instructions=0,
        final_r0=0,
        finish_reason="error",
        wall_seconds=0.0,
        worker_pid=os.getpid(),
        kind=KIND_FAILED,
        error=failure.error,
        error_details=failure.details,
        attempts=attempts,
    )


def _pool_init(sys_path):
    # Spawned workers start a fresh interpreter that knows nothing about a
    # PYTHONPATH=src-style parent; mirroring the parent's sys.path makes the
    # repro package importable however the orchestrator found it.
    sys.path[:] = sys_path


def _pool_worker(payload):
    """Execute one run: its :class:`RunResult`, or a :class:`_RunFailure`."""
    run, campaign = payload
    try:
        return execute_run(run, campaign=campaign)
    except Exception as error:  # isolated and retried by run_campaign
        return _RunFailure(
            run_id=run.run_id,
            error="%s: %s" % (type(error).__name__, error),
            details=traceback.format_exc(),
        )


@dataclass
class CampaignReport:
    """What :func:`run_campaign` did: every result plus the execution split."""

    spec: object
    plan: object
    results: tuple = ()
    executed: int = 0
    cached: int = 0
    wall_seconds: float = 0.0
    store_path: str = None
    #: :meth:`repro.observe.metrics.MetricsRegistry.snapshot` of this
    #: invocation (phase timings, store hit rates, worker utilisation).
    metrics: dict = None

    @property
    def skipped(self):
        return self.plan.skipped

    @property
    def saved_wall_seconds(self):
        """Host wall-time the store's cache hits saved this invocation."""
        return sum(result.wall_seconds for result in self.results if result.cached)

    def summary(self):
        return {
            "campaign": self.spec.name,
            "planned": len(self.plan.runs),
            "executed": self.executed,
            "cached": self.cached,
            "skipped_pairs": len(self.plan.skipped),
            "wall_seconds": round(self.wall_seconds, 3),
            "store": self.store_path,
        }


def _coerce_store(store):
    if store is None or isinstance(store, ResultStore):
        return store
    return ResultStore(store)


def run_campaign(
    spec,
    store=None,
    max_workers=None,
    mp_context=None,
    progress=None,
    metrics=None,
    keep_going=False,
):
    """Plan and execute ``spec``, returning a :class:`CampaignReport`.

    ``store`` is a :class:`ResultStore`, a directory path, or ``None`` for
    a purely in-memory campaign.  Runs whose fingerprint the store already
    holds as a *successful* record are served from it without simulating
    (a stored ``"failed"`` record is retried instead); everything else
    executes on a pool of ``max_workers`` processes (default: one per host
    CPU, capped by the number of pending runs; ``1`` stays in-process).
    ``progress``, when given, is called as ``progress(result)`` after each
    run completes, fails permanently, or is served from the store.

    Failure policy: failing runs are retried up to ``spec.max_retries`` times
    with exponential backoff, and runs that exhaust the budget are
    persisted as ``"failed"`` records before a collected
    :class:`CampaignError` is raised.  ``keep_going=False`` (default)
    stops launching further work once any run has permanently failed;
    ``keep_going=True`` finishes the whole grid and every retry first.

    ``metrics`` is an optional
    :class:`~repro.observe.metrics.MetricsRegistry` to record into (one is
    created otherwise); the snapshot lands on ``CampaignReport.metrics``
    and — when a store is used — is persisted as ``metrics.json`` next to
    the store's shard files, with the store-level hit/miss/saved/lock-wait
    counters kept cumulative across invocations.
    """
    registry = metrics if metrics is not None else MetricsRegistry()
    start = time.perf_counter()
    with registry.timer("campaign.phase.plan_seconds", "wall time spent planning"):
        plan = plan_campaign(spec)
    store = _coerce_store(store)
    with registry.timer(
        "campaign.phase.store_load_seconds", "wall time loading the result store"
    ):
        stored = store.load() if store is not None else {}

    store_hits = registry.counter(
        "campaign.store.hits", "runs served from the result store"
    )
    store_misses = registry.counter(
        "campaign.store.misses", "planned runs the store did not hold"
    )
    saved_wall = registry.counter(
        "campaign.store.saved_wall_seconds",
        "host wall-time of the stored runs served instead of re-executed",
    )
    run_wall = registry.histogram(
        "campaign.run.wall_seconds", "per-run host wall-time of executed runs"
    )
    retry_counter = registry.counter(
        "campaign.run.retries", "budget-charged re-executions of failing runs"
    )
    failure_counter = registry.counter(
        "campaign.run.failures", "runs that exhausted their retry budget"
    )

    pending = []
    by_fingerprint = {}
    cached = 0
    for run in plan.runs:
        fingerprint = run.fingerprint()
        hit = stored.get(fingerprint)
        if hit is not None and hit.ok:
            hit.cached = True
            by_fingerprint[fingerprint] = hit
            cached += 1
            store_hits.inc()
            saved_wall.inc(max(hit.wall_seconds, 0.0))
            if progress is not None:
                progress(hit)
        else:
            if hit is not None:  # a stored failure row: retry, never serve
                registry.counter(
                    "campaign.store.failed_retried",
                    "stored failure rows retried instead of served",
                ).inc()
            store_misses.inc()
            pending.append((fingerprint, run))

    if max_workers is None:
        max_workers = min(len(pending), os.cpu_count() or 1) or 1
    registry.gauge("campaign.units", "runs executed this invocation").set(len(pending))
    registry.gauge("campaign.workers.max", "worker-pool size").set(max_workers)
    fingerprint_of = {run.run_id: fp for fp, run in pending}
    run_by_id = {run.run_id: run for _, run in pending}
    worker_runs = {}

    def record(result):
        by_fingerprint[fingerprint_of[result.run_id]] = result
        run_wall.observe(result.wall_seconds)
        worker_runs[result.worker_pid] = worker_runs.get(result.worker_pid, 0) + 1
        _record_generation_metrics(registry, result.generation)
        if store is not None:
            store.append(result)
        if progress is not None:
            progress(result)

    attempts = {}  # run_id -> budget-charged re-executions so far
    final_failures = []  # (run, _RunFailure) pairs past their budget
    with registry.timer(
        "campaign.phase.execute_seconds", "wall time executing pending runs"
    ):
        pending_runs = [run for _, run in pending]
        round_index = 0
        stop = False
        while pending_runs and not stop:
            next_runs = []
            newly_final = []

            def handle(out):
                if not isinstance(out, _RunFailure):
                    record(out)
                    return
                run = run_by_id[out.run_id]
                used = attempts.get(out.run_id, 0)
                if used < spec.max_retries:
                    attempts[out.run_id] = used + 1
                    retry_counter.inc()
                    next_runs.append(run)
                else:
                    newly_final.append((run, out))

            if max_workers <= 1 or len(pending_runs) == 1:
                for run in pending_runs:
                    handle(_pool_worker((run, spec.name)))
                    if newly_final and not keep_going:
                        stop = True
                        break
            else:
                context = multiprocessing.get_context(mp_context)
                payloads = [(run, spec.name) for run in pending_runs]
                with context.Pool(
                    processes=max_workers,
                    initializer=_pool_init,
                    initargs=(list(sys.path),),
                ) as pool:
                    for out in pool.imap_unordered(_pool_worker, payloads):
                        handle(out)
                if newly_final and not keep_going:
                    stop = True

            final_failures.extend(newly_final)
            if stop or not next_runs:
                break
            if spec.retry_backoff_seconds > 0:
                time.sleep(spec.retry_backoff_seconds * (2**round_index))
            pending_runs = next_runs
            round_index += 1

    if worker_runs:
        utilisation = registry.histogram(
            "campaign.worker.runs", "executed runs per worker process"
        )
        for count in worker_runs.values():
            utilisation.observe(count)
        registry.gauge(
            "campaign.workers.used", "distinct worker processes that returned results"
        ).set(len(worker_runs))

    for run, failure in final_failures:
        failure_counter.inc()
        failed = _failure_result(
            run, failure, spec.name, attempts.get(run.run_id, 0) + 1
        )
        if store is not None:
            store.append(failed)
        if progress is not None:
            progress(failed)

    wall = time.perf_counter() - start
    registry.gauge("campaign.wall_seconds", "total campaign wall time").set(wall)
    if store is not None:
        registry.merge_counters(
            {
                "campaign.store.lock_wait_seconds": store.counters["lock_wait_seconds"],
                "campaign.store.quarantined_lines": len(store.quarantined()),
            },
            description="result-store health (lock contention, skipped lines)",
        )
    snapshot = registry.snapshot()
    if store is not None:
        _persist_metrics(store, snapshot)

    if final_failures:
        lines = [
            "campaign %r: %d run(s) failed%s"
            % (
                spec.name,
                len(final_failures),
                "" if keep_going else " (re-run with keep_going to finish the grid)",
            )
        ]
        for _run, failure in final_failures:
            lines.append("  %s: %s" % (failure.run_id, failure.error))
        lines.append(final_failures[0][1].details)
        raise CampaignError("\n".join(lines))

    results = tuple(by_fingerprint[run.fingerprint()] for run in plan.runs)
    return CampaignReport(
        spec=spec,
        plan=plan,
        results=results,
        executed=len(pending),
        cached=cached,
        wall_seconds=wall,
        store_path=store.path if store is not None else None,
        metrics=snapshot,
    )


def _record_generation_metrics(registry, generation):
    """Fold one result's generation report into cache-status counters."""
    if not isinstance(generation, dict):
        return
    status = generation.get("schedule_cache")
    if status:
        registry.counter(
            "campaign.schedule_cache.%s" % status, "runs with this schedule-cache status"
        ).inc()
    compilation = generation.get("compilation")
    status = compilation.get("codegen_cache") if isinstance(compilation, dict) else None
    if status:
        registry.counter(
            "campaign.codegen_cache.%s" % status, "runs with this codegen-cache status"
        ).inc()


def metrics_path(store):
    """Where a store's campaign metrics snapshot lives on disk."""
    return os.path.join(store.path, METRICS_FILENAME)


def _persist_metrics(store, snapshot):
    """Write ``metrics.json`` next to the store's shard files.

    Per-invocation metrics (phase timings, worker utilisation) are simply
    overwritten; the store-level hit/miss/saved/lock-wait counters are
    merged with the previous snapshot so ``report`` can show lifetime
    cache value.  Best-effort: an unwritable store directory loses the
    snapshot, never the campaign.
    """
    merged = {name: dict(entry) for name, entry in snapshot.items()}
    previous = read_metrics_json(metrics_path(store))
    merge_cumulative(merged, previous, CUMULATIVE_STORE_METRICS)
    with contextlib.suppress(OSError):
        os.makedirs(store.path, exist_ok=True)
        write_metrics_json(metrics_path(store), merged)


def run_single(
    processor,
    workload,
    scale=1,
    engine="interpreted",
    max_cycles=None,
    max_instructions=None,
):
    """Convenience: execute one ad-hoc run outside any campaign."""
    run = RunSpec(
        processor=processor if isinstance(processor, str) else processor.name,
        workload=workload,
        scale=scale,
        engine=engine,
        max_cycles=max_cycles,
        max_instructions=max_instructions,
        processor_spec=None if isinstance(processor, str) else processor,
    )
    return execute_run(run)
