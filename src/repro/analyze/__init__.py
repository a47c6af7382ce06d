"""Static model verification and emitted-source lint.

Two analysis families over registered processor models, both producing
the same :class:`~repro.analyze.findings.Finding` objects:

* **lint** — rule-based structural checks on the declarative
  :class:`~repro.describe.spec.PipelineSpec` (dead transitions,
  unreachable places, siphon-style deadlocks, issue-width and cache
  geometry smells; rules ``AN0xx``) and on the elaborated RCPN
  (``AN1xx``).  Pure inspection: nothing is simulated.
* **verify** — emitted-source verification: the generated backend's
  emitted Python modules are parsed with :mod:`ast` and proven
  to match the generation plan (rules ``SV0xx``), and the interpreted
  backend's cached schedule is checked against a fresh derivation
  (``SV1xx``).

Run from the command line::

    python -m repro.analyze lint --all --fail-on warning
    python -m repro.analyze verify --all --backends interpreted,generated
"""

from repro.analyze.findings import (
    RULES,
    SEVERITIES,
    Finding,
    Rule,
    exceeds,
    finding,
    max_severity,
    record_rule_hits,
    severity_rank,
)
from repro.analyze.rules import lint_model, lint_net, lint_registered, lint_spec
from repro.analyze.sourcecheck import verify_backend, verify_engine, verify_model

__all__ = [
    "RULES",
    "SEVERITIES",
    "Finding",
    "Rule",
    "exceeds",
    "finding",
    "lint_model",
    "lint_net",
    "lint_registered",
    "lint_spec",
    "max_severity",
    "record_rule_hits",
    "severity_rank",
    "verify_backend",
    "verify_engine",
    "verify_model",
]
