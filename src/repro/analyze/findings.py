"""Finding and rule vocabulary of the static analyzer.

A :class:`Finding` is one diagnostic: the rule that fired, its severity,
the model (or spec) it was found in and a location string precise enough
to act on (``spec:paths[branch]``, ``net:place 'alu.issue'``,
``source:make_run_cycles``).  Findings are plain data — ``to_dict`` round-trips
through JSON — so the CLI, the CI artifact and the campaign report all
render the same objects.

The rule catalogue (:data:`RULES`) is the single source of truth for rule
ids, default severities and the README rule table; rules are grouped by id
prefix:

* ``AN0xx`` — spec-level structural lint (:func:`repro.analyze.rules.lint_spec`);
* ``AN1xx`` — elaborated-net lint (:func:`repro.analyze.rules.lint_net`);
* ``SV0xx`` — emitted-source verification (:mod:`repro.analyze.sourcecheck`);
* ``SV1xx`` — interpreted-backend coherence checks.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Severity order, least to most severe; ``--fail-on`` thresholds compare
#: against this ranking.
SEVERITIES = ("info", "warning", "error")


@dataclass(frozen=True)
class Rule:
    """One analyzer rule: id, short slug, default severity, summary."""

    id: str
    slug: str
    severity: str
    summary: str


_RULE_TABLE = (
    # -- spec-level structural lint (repro.analyze.rules.lint_spec) --------
    Rule("AN001", "spec-invalid", "error",
         "PipelineSpec.validate() rejects the spec (one finding per problem)"),
    Rule("AN002", "dead-transition", "error",
         "a path transition can never fire (unreachable source or unsatisfiable consumes)"),
    Rule("AN003", "unreachable-place", "warning",
         "a declared path stage or extra place can never receive a token"),
    Rule("AN004", "path-cannot-retire", "error",
         "no live transition sequence carries an instruction from the path entry to 'end'"),
    Rule("AN005", "reservation-leak", "warning",
         "a reservation place is produced into but never consumed (token-conservation leak)"),
    Rule("AN006", "issue-width-mismatch", "warning",
         "a front-end stage is narrower than the declared issue width"),
    Rule("AN007", "forwarding-gap", "warning",
         "no forward states on a deep pipeline: every producer-consumer pair stalls to writeback"),
    Rule("AN008", "cache-geometry-smell", "warning",
         "suspicious cache hierarchy (L2 smaller/narrower than L1, few sets, latency inversions)"),
    Rule("AN009", "deadlock-siphon", "error",
         "an initially-empty siphon starves every exit of a reachable place (guaranteed jam)"),
    Rule("AN010", "fetch-stall-unwired", "warning",
         "fetch declares a stall stage no transition ever parks a reservation in"),
    # -- elaborated-net lint (repro.analyze.rules.lint_net) ----------------
    Rule("AN101", "net-invalid", "error",
         "elaboration fails or RCPN.validate() rejects the elaborated net"),
    Rule("AN102", "net-dead-dispatch", "error",
         "an instruction place has no dispatch candidates for a sub-net operation class"),
    Rule("AN103", "net-unreachable-place", "warning",
         "an elaborated place is neither an entry nor any transition's output"),
    # -- emitted-source verification (repro.analyze.sourcecheck) -----------
    Rule("SV001", "module-shape", "error",
         "emitted module does not define make_run_cycles, whose inner run_cycles "
         "holds a single cycle loop in a try/finally"),
    Rule("SV002", "dispatch-branches", "error",
         "emitted opclass dispatch branches disagree with the static schedule"),
    Rule("SV003", "place-order", "error",
         "emitted place segments are not in static-schedule order"),
    Rule("SV004", "firing-sites", "error",
         "emitted firing-counter sites disagree with the dispatch chains and generators, "
         "or stall sites (stalls += 1) with one per dispatch chain plus each "
         "segment's else branch"),
    Rule("SV005", "action-call-sites", "error",
         "emitted action call sites (aN) disagree with the splice plan"),
    Rule("SV006", "trace-sites", "error",
         "TRF/TRS trace call sites do not match the requested trace categories"),
    Rule("SV008", "spliced-hooks", "error",
         "an enable test is not its reservation, capacity-plan and guard conjuncts in "
         "order, or a spliced guard or action differs from its hook template's rendering"),
    Rule("SV009", "run-local-counters", "error",
         "a run-local statistics counter is not zeroed on entry to run_cycles, or not "
         "added into its own statistic exactly once in its finally"),
    Rule("SV010", "issue-gates", "error",
         "an emitted issue or advance gate, or an issue's booking, is not the "
         "transition's issue plan written out"),
    Rule("SV101", "schedule-coherent", "error",
         "interpreted backend: cached static schedule (order, dispatch, capacity plans) "
         "disagrees with a fresh derivation"),
)

#: Rule id -> :class:`Rule`.
RULES = {rule.id: rule for rule in _RULE_TABLE}


@dataclass(frozen=True)
class Finding:
    """One diagnostic produced by the analyzer."""

    rule: str
    severity: str
    model: str
    location: str
    message: str

    def to_dict(self):
        return {
            "rule": self.rule,
            "slug": RULES[self.rule].slug if self.rule in RULES else None,
            "severity": self.severity,
            "model": self.model,
            "location": self.location,
            "message": self.message,
        }

    def __str__(self):
        return "%s %s [%s] %s: %s" % (
            self.severity.upper(), self.rule, self.model, self.location, self.message
        )


def finding(rule_id, model, location, message, severity=None):
    """Build a :class:`Finding` for a catalogued rule (default severity)."""
    rule = RULES[rule_id]
    return Finding(
        rule=rule_id,
        severity=severity or rule.severity,
        model=model,
        location=location,
        message=message,
    )


def severity_rank(severity):
    """Position of ``severity`` in :data:`SEVERITIES` (unknown -> most severe)."""
    try:
        return SEVERITIES.index(severity)
    except ValueError:
        return len(SEVERITIES)


def max_severity(findings):
    """The most severe severity present, or ``None`` for no findings."""
    worst = None
    for entry in findings:
        if worst is None or severity_rank(entry.severity) > severity_rank(worst):
            worst = entry.severity
    return worst


def exceeds(findings, fail_on):
    """True when any finding is at least as severe as ``fail_on``."""
    threshold = severity_rank(fail_on)
    return any(severity_rank(entry.severity) >= threshold for entry in findings)


def record_rule_hits(metrics, findings):
    """Fold findings into rule-hit counters of a metrics registry.

    Increments ``analyze.rule.<id>`` per finding plus the per-severity
    ``analyze.findings.<severity>`` totals, so lint sweeps surface as a
    :class:`repro.observe.MetricsRegistry` snapshot.
    """
    for entry in findings:
        metrics.counter(
            "analyze.rule.%s" % entry.rule,
            RULES[entry.rule].summary if entry.rule in RULES else "",
        ).inc()
        metrics.counter(
            "analyze.findings.%s" % entry.severity, "findings at this severity"
        ).inc()
    return metrics
