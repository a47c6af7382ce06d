"""Command-line interface: ``python -m repro.observe trace|view|validate``.

* ``trace`` runs one (model, workload) simulation with tracing enabled and
  exports the event stream — JSONL (``--out``) and/or Chrome
  ``trace_event`` JSON (``--chrome``, opens directly in Perfetto or
  ``chrome://tracing``).
* ``view`` renders a JSONL trace as a Konata-style text pipeline diagram
  (instruction lifetimes: one row per instruction, stage letters per
  cycle).
* ``validate`` checks a Chrome-trace JSON file's ``trace_event``
  structure; non-zero exit on problems (the CI trace-smoke gate).
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.observe.lifetime import build_lifetimes, render_pipeline
from repro.observe.trace import (
    TRACE_CATEGORIES,
    TraceConfig,
    read_trace,
    validate_chrome_trace,
)


def _command_trace(args, out):
    from repro.core.engine import ENGINE_BACKENDS, EngineOptions
    from repro.processors.registry import build_processor
    from repro.workloads.registry import get_workload

    if args.backend not in ENGINE_BACKENDS:
        out.write(
            "error: unknown backend %r; expected one of %s\n"
            % (args.backend, ", ".join(ENGINE_BACKENDS))
        )
        return 1
    categories = tuple(
        part.strip() for part in args.categories.split(",") if part.strip()
    )
    config = TraceConfig(capacity=args.capacity, categories=categories)
    options = EngineOptions(backend=args.backend, trace=config)
    processor = build_processor(args.model, engine_options=options)
    workload = get_workload(args.workload, scale=args.scale)
    processor.load_program(workload.program)
    processor.run(max_cycles=args.max_cycles)

    tracer = processor.tracer
    stats = processor.stats
    out.write(
        "%s/%s@%d [%s]: %d cycles, %d instructions, %d events recorded"
        " (%d retained, %d dropped)\n"
        % (
            args.model,
            args.workload,
            args.scale,
            args.backend,
            stats.cycles,
            stats.instructions,
            tracer.recorded,
            len(tracer.events),
            tracer.dropped,
        )
    )
    if args.out:
        written = tracer.write_jsonl(args.out)
        out.write("wrote %d events to %s\n" % (written, args.out))
    if args.chrome:
        written = tracer.write_chrome_trace(args.chrome)
        out.write(
            "wrote %d trace_event records to %s "
            "(open in ui.perfetto.dev or chrome://tracing)\n" % (written, args.chrome)
        )
    if args.view:
        meta = tracer.metadata()
        from repro.observe.trace import event_dict

        records = build_lifetimes(meta, [event_dict(e) for e in tracer.events])
        out.write(render_pipeline(meta, records, limit=args.limit) + "\n")
    return 0


def _command_view(args, out):
    meta, events = read_trace(args.trace)
    records = build_lifetimes(meta, events)
    out.write(
        render_pipeline(
            meta, records, start=args.start, end=args.end, limit=args.limit
        )
        + "\n"
    )
    return 0


def _command_validate(args, out):
    try:
        with open(args.trace, encoding="utf-8") as handle:
            document = json.load(handle)
    except OSError as error:
        out.write("error: cannot read %s: %s\n" % (args.trace, error))
        return 1
    except ValueError as error:
        out.write("error: %s is not valid JSON: %s\n" % (args.trace, error))
        return 1
    problems = validate_chrome_trace(document)
    if problems:
        out.write("%s: INVALID trace_event document\n" % args.trace)
        for problem in problems:
            out.write("  - %s\n" % problem)
        return 1
    out.write(
        "%s: valid trace_event document (%d events)\n"
        % (args.trace, len(document["traceEvents"]))
    )
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="python -m repro.observe",
        description="Cycle-level traces, pipeline diagrams and trace validation.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    trace = commands.add_parser(
        "trace", help="run one simulation with tracing on and export the events"
    )
    trace.add_argument("--model", default="strongarm", help="processor registry name")
    trace.add_argument("--workload", default="blowfish", help="kernel name")
    trace.add_argument("--scale", type=int, default=1, help="workload scale factor")
    trace.add_argument(
        "--backend",
        default="interpreted",
        help="engine backend (interpreted, generated)",
    )
    trace.add_argument("--max-cycles", type=int, default=None, help="cycle budget")
    trace.add_argument(
        "--categories",
        default=",".join(TRACE_CATEGORIES),
        help="comma-separated event categories (default: all)",
    )
    trace.add_argument(
        "--capacity",
        type=int,
        default=1_000_000,
        help="ring-buffer capacity in events (oldest dropped beyond this)",
    )
    trace.add_argument("--out", default=None, help="write the events as JSONL")
    trace.add_argument(
        "--chrome", default=None, help="write Chrome trace_event JSON (Perfetto)"
    )
    trace.add_argument(
        "--view", action="store_true", help="also print the pipeline diagram"
    )
    trace.add_argument(
        "--limit", type=int, default=32, help="max instruction rows for --view"
    )
    trace.set_defaults(handler=_command_trace)

    view = commands.add_parser(
        "view", help="render a JSONL trace as a text pipeline diagram"
    )
    view.add_argument("trace", help="JSONL trace file written by `trace --out`")
    view.add_argument("--start", type=int, default=None, help="first cycle to show")
    view.add_argument("--end", type=int, default=None, help="cycle to stop before")
    view.add_argument(
        "--limit", type=int, default=64, help="max instruction rows (most recent kept)"
    )
    view.set_defaults(handler=_command_view)

    validate = commands.add_parser(
        "validate", help="check a Chrome-trace JSON file's structure"
    )
    validate.add_argument("trace", help="trace_event JSON written by `trace --chrome`")
    validate.set_defaults(handler=_command_validate)
    return parser


def main(argv=None, out=None):
    out = out or sys.stdout
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args, out)
    except ValueError as error:
        out.write("error: %s\n" % error)
        return 1
