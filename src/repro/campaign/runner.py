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
Workers never touch the store: they return results, and only the
orchestrating process appends them to the store's ``results.jsonl``.

Failures are first-class, not fatal.  A run that raises is isolated on
its worker, which returns it as a ``"failed"`` record — error and
traceback included, visible in ``status``/``report`` — and the campaign
raises a collected :class:`CampaignError`: at the first failed run by
default, or only after the whole grid finished when ``keep_going=True``
(CLI ``--keep-going``).  The simulator is deterministic, so a run is
executed once per invocation: re-executing it would raise again.  Failed
store records never satisfy a cache lookup, so re-running the campaign
(after fixing the fault) re-executes exactly the failed fingerprints and
a success overwrites the failure row.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import multiprocessing.connection
import os
import sys
import threading
import time
import traceback
from dataclasses import dataclass

from repro.campaign.planner import plan_campaign
from repro.campaign.spec import CampaignError, RunSpec
from repro.campaign.store import KIND_FAILED, ResultStore, RunResult


def build_run_processor(run):
    """Build the processor a :class:`RunSpec` describes, ready to load a program."""
    options = run.engine.resolved_options()
    if run.processor_spec is not None:
        from repro.describe.elaborate import elaborate

        return elaborate(run.processor_spec, engine_options=options)
    from repro.processors.registry import build_processor

    return build_processor(run.processor, engine_options=options)


def _identity_fields(run, campaign):
    """The :class:`RunResult` fields naming ``run``, stamped with this process's pid."""
    return dict(
        fingerprint=run.fingerprint(),
        campaign=campaign,
        run_id=run.run_id,
        processor=run.processor,
        workload=run.workload,
        scale=run.scale,
        engine=run.engine.label,
        backend=run.engine.backend,
        repeat=run.repeat,
        worker_pid=os.getpid(),
    )


def _result_for(run, processor, wall, campaign):
    """Assemble the :class:`RunResult` for one completed run."""
    stats = processor.stats
    summary = stats.summary()
    summary["retired_by_class"] = dict(stats.retired_by_class)
    return RunResult(
        **_identity_fields(run, campaign),
        cycles=stats.cycles,
        instructions=stats.instructions,
        final_r0=processor.register(0),
        finish_reason=stats.finish_reason,
        wall_seconds=wall,
        stats=summary,
        generation=processor.generation_report.summary(),
        memory=processor.memory.statistics_summary(),
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


def _pool_init(sys_path):
    # Spawned workers start a fresh interpreter that knows nothing about a
    # PYTHONPATH=src-style parent; mirroring the parent's sys.path makes the
    # repro package importable however the orchestrator found it.
    sys.path[:] = sys_path
    # A pool worker outlives an orchestrator killed by SIGKILL (nothing
    # terminates the pool), and would finish a run nobody will store.
    parent = multiprocessing.parent_process()
    if parent is not None:
        threading.Thread(target=_exit_with, args=(parent.sentinel,), daemon=True).start()


def _exit_with(sentinel):
    """Exit this worker as soon as the process behind ``sentinel`` is gone."""
    multiprocessing.connection.wait([sentinel])
    os._exit(1)


def _pool_worker(payload):
    """Execute one run: its :class:`RunResult`, or its ``"failed"`` record."""
    run, campaign = payload
    try:
        return execute_run(run, campaign=campaign)
    except Exception as error:  # isolated: the failure becomes a store row
        return RunResult(
            **_identity_fields(run, campaign),
            cycles=0,
            instructions=0,
            final_r0=0,
            finish_reason="error",
            wall_seconds=0.0,
            kind=KIND_FAILED,
            error="%s: %s" % (type(error).__name__, error),
            error_details=traceback.format_exc(),
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
    keep_going=False,
):
    """Plan and execute ``spec``, returning a :class:`CampaignReport`.

    ``store`` is a :class:`ResultStore`, a directory path, or ``None`` for
    a purely in-memory campaign.  Runs whose fingerprint the store already
    holds as a *successful* record are served from it without simulating
    (a stored ``"failed"`` record is re-executed instead); everything else
    executes on a pool of ``max_workers`` processes (default: one per host
    CPU, capped by the number of pending runs; ``1`` stays in-process).
    ``progress``, when given, is called as ``progress(result)`` after each
    run completes, fails, or is served from the store.

    Failure policy: a run that raises is persisted as a ``"failed"``
    record, and a collected :class:`CampaignError` is raised once the
    campaign stops.  ``keep_going=False`` (default) stops at the first
    failed run — on a pool, leaving it terminates the runs still in
    flight; ``keep_going=True`` finishes the whole grid first.
    """
    start = time.perf_counter()
    plan = plan_campaign(spec)
    store = _coerce_store(store)
    stored = store.load() if store is not None else {}

    pending = []
    by_fingerprint = {}
    cached = 0
    for run in plan.runs:
        fingerprint = run.fingerprint()
        hit = stored.get(fingerprint)
        if hit is not None and hit.ok:  # a stored failure row is re-executed, never served
            hit.cached = True
            by_fingerprint[fingerprint] = hit
            cached += 1
            if progress is not None:
                progress(hit)
        else:
            pending.append((fingerprint, run))

    if max_workers is None:
        max_workers = min(len(pending), os.cpu_count() or 1) or 1
    fingerprint_of = {run.run_id: fp for fp, run in pending}
    failures = []

    def record(result):
        by_fingerprint[fingerprint_of[result.run_id]] = result
        if not result.ok:
            failures.append(result)
        if store is not None:
            store.append(result)
        if progress is not None:
            progress(result)

    with contextlib.ExitStack() as stack:
        payloads = [(run, spec.name) for _, run in pending]
        if max_workers <= 1 or len(payloads) <= 1:
            outcomes = map(_pool_worker, payloads)
        else:
            pool = stack.enter_context(
                multiprocessing.get_context(mp_context).Pool(
                    processes=max_workers,
                    initializer=_pool_init,
                    initargs=(list(sys.path),),
                )
            )
            outcomes = pool.imap_unordered(_pool_worker, payloads)
        for result in outcomes:
            record(result)
            if not result.ok and not keep_going:
                break  # leaving the pool's block terminates it
    wall = time.perf_counter() - start

    if failures:
        lines = [
            "campaign %r: %d run(s) failed%s"
            % (
                spec.name,
                len(failures),
                "" if keep_going else " (re-run with keep_going to finish the grid)",
            )
        ]
        for failure in failures:
            lines.append("  %s: %s" % (failure.run_id, failure.error))
        lines.append(failures[0].error_details)
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
    )


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
