"""Command-line interface: ``python -m repro.campaign run|status|report``.

``run`` executes a campaign (grid flags or a ``--spec`` JSON file) against
a result store, ``status`` reports how much of a campaign the store
already holds, and ``report`` renders the aggregation tables (and exports
CSV/JSON) from a store.  Every command is incremental by construction:
pointing ``run`` at yesterday's store re-executes only the fingerprints
that are missing or previously failed.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.campaign import aggregate
from repro.campaign.planner import plan_campaign
from repro.campaign.runner import run_campaign
from repro.campaign.spec import ALL, CampaignError, CampaignSpec
from repro.campaign.store import ResultStore


def _split(value):
    return tuple(part.strip() for part in value.split(",") if part.strip())


def _grid_arguments(parser):
    parser.add_argument("--name", default="campaign", help="campaign name")
    parser.add_argument(
        "--spec",
        help="JSON campaign file (CampaignSpec.to_dict shape); overrides the grid flags",
    )
    parser.add_argument(
        "--processors",
        default=ALL,
        help='comma-separated registry names, or "all" (default)',
    )
    parser.add_argument(
        "--workloads",
        default=ALL,
        help='comma-separated kernel names, or "all" (default)',
    )
    parser.add_argument("--scales", default="1", help="comma-separated scale factors")
    parser.add_argument(
        "--engines",
        default="interpreted,generated",
        help="comma-separated engine backends (interpreted, generated)",
    )
    parser.add_argument("--repeats", type=int, default=1, help="runs per grid point")
    parser.add_argument("--max-cycles", type=int, default=None, help="per-run cycle budget")
    parser.add_argument(
        "--max-instructions", type=int, default=None, help="per-run instruction budget"
    )


def _scales(value):
    scales = []
    for part in _split(value):
        try:
            scales.append(int(part))
        except ValueError:
            raise CampaignError(
                "bad --scales entry %r (need a comma-separated list of "
                "positive integers, e.g. --scales 1,4)" % part
            ) from None
    return tuple(scales)


def _spec_from_args(args):
    if args.spec:
        try:
            with open(args.spec, encoding="utf-8") as handle:
                data = json.load(handle)
        except OSError as error:
            raise CampaignError("cannot read --spec file: %s" % error) from None
        except json.JSONDecodeError as error:
            raise CampaignError(
                "--spec file %s is not valid JSON: %s" % (args.spec, error)
            ) from None
        spec = CampaignSpec.from_dict(data)
    else:
        spec = CampaignSpec(
            name=args.name,
            processors=_split(args.processors),
            workloads=_split(args.workloads),
            scales=_scales(args.scales),
            engines=_split(args.engines),
            repeats=args.repeats,
            max_cycles=args.max_cycles,
            max_instructions=args.max_instructions,
        )
        spec.validate()
    # Resolve registry names now, while we are still parsing arguments:
    # a typo in --processors/--workloads (or in a spec file) dies here
    # with the registry's did-you-mean suggestions instead of surfacing
    # later from a planner or worker stack.
    from repro.campaign.planner import resolve_processors, resolve_workloads

    resolve_processors(spec)
    resolve_workloads(spec)
    return spec


def _print_summary(out, report):
    summary = report.summary()
    out.write(
        "campaign %(campaign)r: %(planned)d planned, %(executed)d executed, "
        "%(cached)d from store, %(skipped_pairs)d pairs skipped "
        "(%(wall_seconds).2fs)\n" % summary
    )
    if report.store_path:
        out.write("store: %s\n" % report.store_path)
    out.write(
        "store cache: %d hit(s), %d miss(es), %.2fs of simulation wall time "
        "served from the store\n"
        % (report.cached, report.executed, report.saved_wall_seconds)
    )


def _command_run(args, out):
    spec = _spec_from_args(args)

    def progress(result):
        if not result.ok:
            out.write("  [FAILED] %s: %s\n" % (result.run_id, result.error))
            out.flush()
            return
        origin = "store" if result.cached else "pid %d" % result.worker_pid
        out.write(
            "  [%s] %s: %d cycles, CPI %.3f\n"
            % (origin, result.run_id, result.cycles, result.cpi)
        )
        out.flush()

    report = run_campaign(
        spec,
        store=args.store,
        max_workers=args.max_workers,
        progress=progress if args.verbose else None,
        keep_going=args.keep_going,
    )
    _print_summary(out, report)
    out.write("\n" + aggregate.render(aggregate.summarize(report)) + "\n")
    if args.expect_all_cached and report.executed:
        out.write(
            "ERROR: --expect-all-cached, but %d run(s) executed\n" % report.executed
        )
        return 1
    return 0


def _command_status(args, out):
    spec = _spec_from_args(args)
    plan = plan_campaign(spec)
    store = ResultStore(args.store)
    stored = store.load()
    done, failed, pending = [], [], []
    for run in plan.runs:
        hit = stored.get(run.fingerprint())
        if hit is None:
            pending.append(run)
        elif hit.ok:
            done.append(run)
        else:  # a stored failure row: a re-run re-executes it
            failed.append((run, hit))
            pending.append(run)
    out.write(
        "campaign %r: %d planned, %d stored, %d failed, %d pending, %d pairs skipped\n"
        % (
            spec.name,
            len(plan.runs),
            len(done),
            len(failed),
            len(pending),
            len(plan.skipped),
        )
    )
    for run, hit in failed:
        out.write("  failed %s: %s\n" % (run.run_id, hit.error))
    for run in pending:
        out.write("  pending %s\n" % run.run_id)
    quarantined = store.quarantined()
    if quarantined:
        out.write("warning: %d corrupt line(s) quarantined\n" % len(quarantined))
    return 0 if not pending else 2


def _lint_status(results):
    """One lint-status line per campaigned model, or ``()`` when unavailable.

    Spec-level only (no elaboration) so ``report`` stays cheap, and fully
    guarded: a store may reference models the current registry no longer
    ships, and the report must still render.
    """
    try:
        from repro.analyze import lint_registered, max_severity
        from repro.processors.registry import get_entry
    except ImportError:
        return ()
    names = sorted({result.processor for result in results})
    lines = []
    for name in names:
        try:
            get_entry(name)
            findings = lint_registered(names=(name,), elaborated=False)[name]
        except Exception as error:
            lines.append("%s: lint unavailable (%s)" % (name, error))
            continue
        if findings:
            lines.append(
                "%s: %d finding(s), worst %s (run `python -m repro.analyze "
                "lint %s` for detail)"
                % (name, len(findings), max_severity(findings), name)
            )
        else:
            lines.append("%s: CLEAN" % name)
    return tuple(lines)


def _command_report(args, out):
    store = ResultStore(args.store)
    results = store.results()
    if not results:
        out.write("store %s holds no results\n" % store.path)
        return 1
    by = tuple(_split(args.group_by))
    quarantined = store.quarantined()
    if quarantined:
        out.write("warning: %d corrupt line(s) quarantined by the loader\n\n" % len(quarantined))
    summary = aggregate.summarize(results, by=by)
    if summary:
        out.write(aggregate.render(summary) + "\n")
    failures = aggregate.failure_rows(results)
    if failures:
        out.write("\nfailed runs (re-executed by the next `run` against this store):\n")
        out.write(aggregate.render(failures) + "\n")
    caches = aggregate.cache_table(results, by=by)
    if caches:
        out.write("\ncache behaviour (per-level miss rates):\n")
        out.write(aggregate.render(caches) + "\n")
    speedups = aggregate.speedup_table(results)
    if speedups:
        out.write("\nspeedup (generated over interpreted):\n")
        out.write(aggregate.render(speedups) + "\n")
    lint_lines = _lint_status(results)
    if lint_lines:
        out.write("\nstatic analysis (spec-level lint of the campaigned models):\n")
        for line in lint_lines:
            out.write("  %s\n" % line)
    if args.csv:
        count = aggregate.to_csv(results, args.csv)
        out.write("\nwrote %d rows to %s\n" % (count, args.csv))
    if args.json:
        aggregate.to_json(results, args.json)
        out.write("wrote %d records to %s\n" % (len(results), args.json))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="python -m repro.campaign",
        description="Parallel, content-addressed simulation campaigns.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser("run", help="plan and execute a campaign")
    _grid_arguments(run)
    run.add_argument(
        "--store",
        required=True,
        help="result-store directory (conventionally campaign-store/, which "
        "is gitignored: stores are host-local caches, not sources)",
    )
    run.add_argument(
        "--max-workers", type=int, default=None, help="worker processes (1 = in-process)"
    )
    run.add_argument(
        "--verbose", action="store_true", help="print each run as it completes"
    )
    run.add_argument(
        "--expect-all-cached",
        action="store_true",
        help="fail if any run actually executed (CI incrementality check)",
    )
    run.add_argument(
        "--keep-going",
        action="store_true",
        help="finish the whole grid before reporting collected failures, "
        "instead of stopping at the first one",
    )
    run.set_defaults(handler=_command_run)

    status = commands.add_parser("status", help="compare a campaign against a store")
    _grid_arguments(status)
    status.add_argument(
        "--store",
        required=True,
        help="result-store directory (conventionally campaign-store/, which "
        "is gitignored: stores are host-local caches, not sources)",
    )
    status.set_defaults(handler=_command_status)

    report = commands.add_parser("report", help="render aggregation tables from a store")
    report.add_argument(
        "--store",
        required=True,
        help="result-store directory (conventionally campaign-store/, which "
        "is gitignored: stores are host-local caches, not sources)",
    )
    report.add_argument(
        "--group-by",
        default="processor,workload,scale,engine",
        help="comma-separated grouping attributes",
    )
    report.add_argument("--csv", default=None, help="export flat rows as CSV")
    report.add_argument("--json", default=None, help="export full records as JSON")
    report.set_defaults(handler=_command_report)

    return parser


def main(argv=None, out=None):
    from repro.core.exceptions import UnknownNameError

    out = out or sys.stdout
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args, out)
    except (CampaignError, ValueError, UnknownNameError) as error:
        # UnknownNameError overrides __str__, so the did-you-mean message
        # survives the KeyError ancestry.
        out.write("error: %s\n" % error)
        return 1
