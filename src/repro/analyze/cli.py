"""Command-line interface: ``python -m repro.analyze lint|verify|rules``.

``lint`` runs the spec/net structural rules over registered models,
``verify`` proves each backend's executable artefact (emitted source,
cached schedule) matches an independent re-derivation, and
``rules`` prints the rule catalogue.  Both analysis commands render text
(one finding per line) or a JSON document suitable for a CI artifact, and
exit non-zero when findings reach the ``--fail-on`` threshold.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.analyze.findings import RULES, SEVERITIES, exceeds, record_rule_hits
from repro.analyze.rules import lint_registered
from repro.analyze.sourcecheck import verify_backend, verify_model
from repro.core.engine import ENGINE_BACKENDS, EngineOptions


def _split(value):
    return tuple(part.strip() for part in value.split(",") if part.strip())


def _resolve_models(args):
    from repro.processors.registry import get_entry, processor_names

    if args.models:
        for name in args.models:
            get_entry(name)  # raises with a did-you-mean on typos
        return tuple(args.models)
    if not args.all:
        raise ValueError("name at least one model, or pass --all")
    if getattr(args, "command", None) == "lint":
        return tuple(
            name
            for name in processor_names()
            if getattr(get_entry(name), "lint", True)
        )
    return tuple(processor_names())


def _render(out, per_model, args, extra=None):
    """Render findings as text or JSON; return the exit code."""
    findings = [entry for model in per_model.values() for entry in model]
    if args.format == "json":
        document = {
            "command": args.command,
            "fail_on": args.fail_on,
            "counts": {
                severity: sum(1 for f in findings if f.severity == severity)
                for severity in SEVERITIES
            },
            "clean": sorted(name for name, fs in per_model.items() if not fs),
            "dirty": sorted(name for name, fs in per_model.items() if fs),
            "findings": [entry.to_dict() for entry in findings],
        }
        if extra:
            document.update(extra)
        out.write(json.dumps(document, indent=2, sort_keys=True) + "\n")
    else:
        for name in sorted(per_model):
            model_findings = per_model[name]
            if model_findings:
                out.write("%s: %d finding(s)\n" % (name, len(model_findings)))
                for entry in model_findings:
                    out.write("  %s\n" % entry)
            else:
                out.write("%s: CLEAN\n" % name)
        out.write(
            "%d model(s), %d finding(s)\n" % (len(per_model), len(findings))
        )
    return 1 if exceeds(findings, args.fail_on) else 0


def _maybe_write_metrics(args, per_model):
    """``--metrics-json``: rule hits and clean/dirty model gauges."""
    if not getattr(args, "metrics_json", None):
        return
    from repro.observe.metrics import MetricsRegistry, write_metrics_json

    metrics = MetricsRegistry()
    record_rule_hits(metrics, [entry for findings in per_model.values() for entry in findings])
    metrics.gauge("analyze.models_clean", "models with no findings").set(
        sum(1 for fs in per_model.values() if not fs)
    )
    metrics.gauge("analyze.models_dirty", "models with findings").set(
        sum(1 for fs in per_model.values() if fs)
    )
    write_metrics_json(args.metrics_json, metrics.snapshot())


def _command_lint(args, out):
    names = _resolve_models(args)
    per_model = lint_registered(names=names, elaborated=not args.spec_only)
    _maybe_write_metrics(args, per_model)
    return _render(out, per_model, args)


def _command_verify(args, out):
    backends = _split(args.backends)
    for backend in backends:
        EngineOptions(backend=backend)  # raises with a hint on unknown names
    names = _resolve_models(args)
    per_model = {}
    combos = 0
    for name in names:
        findings = []
        for backend in backends:
            findings.extend(verify_backend(name, backend))
            combos += 1
            if args.trace and backend == "generated":
                findings.extend(verify_model(name, trace=True))
                findings.extend(verify_model(name, hostcost=True))
                combos += 2
        per_model[name] = findings
    _maybe_write_metrics(args, per_model)
    return _render(
        out, per_model, args,
        extra={"backends": list(backends), "combinations": combos},
    )


def _command_rules(args, out):
    if args.format == "json":
        out.write(json.dumps(
            [
                {
                    "id": rule.id,
                    "slug": rule.slug,
                    "severity": rule.severity,
                    "summary": rule.summary,
                }
                for rule in RULES.values()
            ],
            indent=2,
        ) + "\n")
    else:
        for rule in RULES.values():
            out.write(
                "%s  %-8s %-24s %s\n"
                % (rule.id, rule.severity, rule.slug, rule.summary)
            )
    return 0


def _analysis_arguments(parser):
    parser.add_argument("models", nargs="*", help="registry model names")
    parser.add_argument(
        "--all", action="store_true", help="analyze every registered model"
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text", help="output format"
    )
    parser.add_argument(
        "--fail-on",
        choices=SEVERITIES,
        default="error",
        help="exit 1 when any finding is at least this severe (default: error)",
    )
    parser.add_argument(
        "--metrics-json",
        default=None,
        help="write rule-hit counters to this metrics JSON file",
    )


def build_parser():
    parser = argparse.ArgumentParser(
        prog="python -m repro.analyze",
        description="static model verification and emitted-source lint",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    lint = commands.add_parser(
        "lint", help="structural lint of registered specs and elaborated nets"
    )
    _analysis_arguments(lint)
    lint.add_argument(
        "--spec-only",
        action="store_true",
        help="skip elaboration; run only the spec-level rules",
    )
    lint.set_defaults(handler=_command_lint)

    verify = commands.add_parser(
        "verify",
        help="prove backend artefacts (emitted source, schedule) "
        "match a fresh derivation",
    )
    _analysis_arguments(verify)
    verify.add_argument(
        "--backends",
        default=",".join(ENGINE_BACKENDS),
        help="comma-separated backends to verify (default: all)",
    )
    verify.add_argument(
        "--trace",
        action="store_true",
        help="also verify the generated backend's traced emission (TRF/TRS "
        "sites) and its hostcost emission (timed spliced hooks)",
    )
    verify.set_defaults(handler=_command_verify)

    rules = commands.add_parser("rules", help="print the rule catalogue")
    rules.add_argument(
        "--format", choices=("text", "json"), default="text", help="output format"
    )
    rules.set_defaults(handler=_command_rules)
    return parser


def main(argv=None, out=None):
    from repro.core.exceptions import UnknownNameError

    out = out or sys.stdout
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args, out)
    except (ValueError, UnknownNameError) as error:
        out.write("error: %s\n" % error)
        return 1
