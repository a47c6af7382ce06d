"""Observability layer: cycle-level traces, instruction lifetimes, metrics.

``repro.observe`` turns the RCPN engine's implicit token flow into
explicit, inspectable artifacts:

* :class:`TraceConfig` / :class:`Tracer` — a cycle-level event tracer
  (transition firings, stalls, squashes with provenance, token creation,
  cache hit/miss/fill/writeback) attached via ``EngineOptions(trace=...)``
  and shared by both backends.  Exports JSONL and Chrome
  ``trace_event`` JSON (Perfetto / ``chrome://tracing``).
* :func:`build_lifetimes` / :func:`render_pipeline` — fold a trace into
  per-instruction fetch→retire records and draw them as a Konata-style
  text pipeline diagram (``python -m repro.observe view``).
* :class:`MetricsRegistry` — counters/gauges/histograms used by the
  campaign runner for per-phase timing, store hit rates and worker
  utilisation (``python -m repro.campaign report --metrics``).
"""

from repro.observe.lifetime import (
    InstructionLifetime,
    StageVisit,
    build_lifetimes,
    render_pipeline,
)
from repro.observe.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    merge_cumulative,
    read_metrics_json,
    render_metrics,
    snapshot_value,
    write_metrics_json,
)
from repro.observe.trace import (
    TRACE_CATEGORIES,
    TraceConfig,
    Tracer,
    build_tracer,
    chrome_trace,
    event_dict,
    read_trace,
    validate_chrome_trace,
)

__all__ = [
    "TRACE_CATEGORIES",
    "TraceConfig",
    "Tracer",
    "build_tracer",
    "chrome_trace",
    "event_dict",
    "read_trace",
    "validate_chrome_trace",
    "InstructionLifetime",
    "StageVisit",
    "build_lifetimes",
    "render_pipeline",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "merge_cumulative",
    "read_metrics_json",
    "render_metrics",
    "snapshot_value",
    "write_metrics_json",
]
