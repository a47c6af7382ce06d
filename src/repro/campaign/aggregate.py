"""Aggregation over campaign results: grouping, tables and export.

Results come in as :class:`~repro.campaign.store.RunResult`s (from a
:class:`~repro.campaign.runner.CampaignReport` or straight from a
:class:`~repro.campaign.store.ResultStore`); this module turns them into
the shapes the paper's figures need — flat rows, CPI tables, per-level
cache/miss-rate tables (:func:`cache_table`, the Figure 12 shape) and
speedup tables comparing engine variants — and exports them as CSV or JSON.
Rendering goes through :func:`repro.analysis.report.format_table` so
campaign reports look like the rest of the benchmark output.
"""

from __future__ import annotations

import csv
import json

from repro.analysis.report import format_table


def _as_results(results, ok_only=False):
    """Accept a result iterable, a CampaignReport or a ResultStore.

    With ``ok_only`` the ``"failed"`` store records are dropped — the
    simulated-quantity tables must never mix failure rows (zero cycles,
    zero instructions) into real groups.
    """
    if hasattr(results, "results"):
        results = results.results
    if callable(results):  # ResultStore.results is a method
        results = results()
    results = list(results)
    if ok_only:
        results = [result for result in results if result.ok]
    return results


def result_rows(results):
    """One flat dictionary per result — the canonical tabular form.

    Failure records are included (``kind`` column ``"failed"``, with the
    error summary) so CSV exports carry the full store contents; the
    aggregation tables below filter them out.
    """
    rows = []
    for result in _as_results(results):
        rows.append(
            {
                "processor": result.processor,
                "workload": result.workload,
                "scale": result.scale,
                "engine": result.engine,
                "backend": result.backend,
                "repeat": result.repeat,
                "kind": result.kind,
                "cycles": result.cycles,
                "instructions": result.instructions,
                "cpi": result.cpi,
                "kcycles_per_sec": result.cycles_per_second / 1e3,
                "wall_seconds": result.wall_seconds,
                "final_r0": result.final_r0,
                "finish_reason": result.finish_reason,
                "error": result.error,
                "cached": result.cached,
                "fingerprint": result.fingerprint,
            }
        )
    return rows


def failure_rows(results):
    """One row per ``"failed"`` record: what failed and why."""
    rows = []
    for result in _as_results(results):
        if result.ok:
            continue
        rows.append(
            {
                "run_id": result.run_id,
                "processor": result.processor,
                "workload": result.workload,
                "scale": result.scale,
                "engine": result.engine,
                "error": result.error,
            }
        )
    return rows


def group_results(results, by=("processor", "workload", "scale", "engine")):
    """Group successful results by the named attributes; ``{key_tuple: [results]}``."""
    groups = {}
    for result in _as_results(results, ok_only=True):
        key = tuple(getattr(result, attribute) for attribute in by)
        groups.setdefault(key, []).append(result)
    return groups


def summarize(results, by=("processor", "workload", "scale", "engine")):
    """Aggregate repeats: one row per group with best throughput and mean wall.

    With the default grouping, members of one group differ only in their
    repeat index, so simulated quantities (cycles, instructions, CPI) are
    identical across the group by construction — the summary asserts that —
    while wall-clock quantities are reduced (best throughput, mean wall
    time).  A custom ``by`` that merges distinct simulations (e.g. dropping
    ``"scale"``) trips the same assertion.
    """
    rows = []
    for key, members in group_results(results, by=by).items():
        cycles = {member.cycles for member in members}
        instructions = {member.instructions for member in members}
        if len(cycles) != 1 or len(instructions) != 1:
            raise ValueError(
                "non-deterministic group %r: cycles=%s instructions=%s"
                % (key, sorted(cycles), sorted(instructions))
            )
        best = max(members, key=lambda member: member.cycles_per_second)
        row = dict(zip(by, key))
        row.update(
            {
                "runs": len(members),
                "cycles": best.cycles,
                "instructions": best.instructions,
                "cpi": best.cpi,
                "best_kcycles_per_sec": best.cycles_per_second / 1e3,
                "mean_wall_seconds": sum(m.wall_seconds for m in members) / len(members),
            }
        )
        rows.append(row)
    return rows


def cpi_table(results):
    """CPI per (processor, workload, scale, engine) — the Figure 11 shape."""
    return [
        {
            "processor": row["processor"],
            "workload": row["workload"],
            "scale": row["scale"],
            "engine": row["engine"],
            "cycles": row["cycles"],
            "instructions": row["instructions"],
            "cpi": row["cpi"],
        }
        for row in summarize(results)
    ]


def cache_table(results, by=("processor", "workload", "scale", "engine")):
    """Per-level cache behaviour per group — the Figure 12 shape.

    One row per group with CPI, instruction/data miss rates, data-side
    miss-penalty cycles and (when the model has one) the L2 hit rate.
    Results recorded before the ``memory`` field existed carry no cache
    statistics and are skipped.  Like :func:`summarize`, simulated
    quantities must agree across a group's repeats — cache counters are
    part of the simulation, not of the host — and disagreement raises.
    """
    rows = []
    for key, members in group_results(results, by=by).items():
        members = [member for member in members if member.memory]
        if not members:
            continue
        memories = [member.memory for member in members]
        if any(memory != memories[0] for memory in memories[1:]):
            raise ValueError("non-deterministic cache statistics in group %r" % (key,))
        memory = memories[0]
        member = members[0]
        row = dict(zip(by, key))
        row.update(
            {
                "cpi": member.cpi,
                "icache_miss_rate": memory["icache"]["miss_rate"],
                "dcache_miss_rate": memory["dcache"]["miss_rate"],
                "dcache_misses": memory["dcache"]["misses"],
                "dcache_miss_cycles": memory["dcache"]["miss_cycles"],
                "l2_hit_rate": memory["l2"]["hit_rate"] if memory.get("l2") else None,
            }
        )
        rows.append(row)
    return rows


def speedup_table(results, baseline="interpreted", against="generated"):
    """Throughput of one engine variant over another, per (processor, workload).

    The two variants must have simulated bit-identical cycles — that is the
    backend contract — and the table enforces it.
    """
    groups = group_results(results, by=("processor", "workload", "scale"))
    rows = []
    for (processor, workload, scale), members in groups.items():
        by_engine = {}
        for member in members:
            best = by_engine.get(member.engine)
            if best is None or member.cycles_per_second > best.cycles_per_second:
                by_engine[member.engine] = member
        if baseline not in by_engine or against not in by_engine:
            continue
        base, fast = by_engine[baseline], by_engine[against]
        if base.cycles != fast.cycles:
            raise ValueError(
                "engine variants %r and %r disagree on simulated cycles for "
                "%s/%s@%d (%d vs %d)"
                % (baseline, against, processor, workload, scale, base.cycles, fast.cycles)
            )
        rows.append(
            {
                "processor": processor,
                "workload": workload,
                "scale": scale,
                "%s_kc_per_sec" % baseline: base.cycles_per_second / 1e3,
                "%s_kc_per_sec" % against: fast.cycles_per_second / 1e3,
                "speedup": (
                    fast.cycles_per_second / base.cycles_per_second
                    if base.cycles_per_second
                    else 0.0
                ),
            }
        )
    return rows


def render(rows, columns=None):
    """Rows as an aligned plain-text table (the benchmark-harness look)."""
    return format_table(rows, columns=columns)


def to_csv(results, path, columns=None):
    """Write the flat result rows as CSV; returns the row count."""
    rows = _as_results(results)
    if not rows:
        raise ValueError("no results to export")
    if not isinstance(rows[0], dict):
        rows = result_rows(rows)
    columns = columns or list(rows[0].keys())
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.DictWriter(handle, fieldnames=columns, extrasaction="ignore")
        writer.writeheader()
        writer.writerows(rows)
    return len(rows)


def to_json(results, path=None):
    """Results as a JSON document (full per-run records); optionally written."""
    payload = [result.to_json_dict() for result in _as_results(results)]
    text = json.dumps(payload, sort_keys=True, indent=2)
    if path is not None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    return text
