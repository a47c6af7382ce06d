"""A small counters/gauges/histograms registry for engine and campaign metrics.

The campaign runner (:func:`repro.campaign.runner.run_campaign`) records
where wall-time actually goes — per-phase timing (plan vs store-load vs
execute), result-store hit rates and the host time those hits saved,
per-worker utilisation, codegen/schedule cache
statuses — into a :class:`MetricsRegistry`; the snapshot rides on
``CampaignReport.metrics``, is persisted as ``metrics.json`` next to the
result store, and ``python -m repro.campaign report --metrics`` renders it
as a table or JSON.

Everything is plain data by design: a snapshot is a JSON-compatible dict,
so it crosses process boundaries and survives in stores without pickling.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


class Counter:
    """A monotonically increasing value (counts, accumulated seconds)."""

    kind = "counter"

    def __init__(self, name, description=""):
        self.name = name
        self.description = description
        self.value = 0

    def inc(self, amount=1):
        if amount < 0:
            raise ValueError("counter %r cannot decrease (inc by %r)" % (self.name, amount))
        self.value += amount
        return self.value

    def snapshot(self):
        return {"type": self.kind, "description": self.description, "value": self.value}


class Gauge:
    """A point-in-time value (utilisation, configured widths)."""

    kind = "gauge"

    def __init__(self, name, description=""):
        self.name = name
        self.description = description
        self.value = None

    def set(self, value):
        self.value = value
        return value

    def snapshot(self):
        return {"type": self.kind, "description": self.description, "value": self.value}


class Histogram:
    """Summary statistics over observed samples (run wall times, batch widths)."""

    kind = "histogram"

    def __init__(self, name, description=""):
        self.name = name
        self.description = description
        self.count = 0
        self.total = 0.0
        self.min = None
        self.max = None

    def observe(self, value):
        self.count += 1
        self.total += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)

    @property
    def mean(self):
        return self.total / self.count if self.count else 0.0

    def snapshot(self):
        return {
            "type": self.kind,
            "description": self.description,
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
        }


class MetricsRegistry:
    """Named metrics with get-or-create access and JSON-friendly snapshots."""

    def __init__(self):
        self._metrics = {}

    def _get(self, cls, name, description):
        metric = self._metrics.get(name)
        if metric is None:
            metric = cls(name, description)
            self._metrics[name] = metric
        elif not isinstance(metric, cls):
            raise TypeError(
                "metric %r already registered as %s, not %s"
                % (name, metric.kind, cls.kind)
            )
        return metric

    def counter(self, name, description=""):
        return self._get(Counter, name, description)

    def gauge(self, name, description=""):
        return self._get(Gauge, name, description)

    def histogram(self, name, description=""):
        return self._get(Histogram, name, description)

    @contextmanager
    def timer(self, name, description=""):
        """Accumulate elapsed wall seconds into the counter ``name``."""
        counter = self.counter(name, description)
        start = time.perf_counter()
        try:
            yield counter
        finally:
            counter.inc(time.perf_counter() - start)

    def merge_counters(self, values, description=""):
        """Fold a plain ``{name: amount}`` mapping into counters.

        Used to adopt counters kept outside the registry — e.g. the
        result store's lock-wait and quarantine bookkeeping — into the
        snapshot without threading the registry through those layers.
        Amounts must be non-negative (counters never decrease).
        """
        for name, amount in sorted(values.items()):
            self.counter(name, description).inc(amount)
        return self

    def __contains__(self, name):
        return name in self._metrics

    def names(self):
        return sorted(self._metrics)

    def snapshot(self):
        """Every metric as a plain ``{name: {type, description, ...}}`` dict."""
        return {name: self._metrics[name].snapshot() for name in sorted(self._metrics)}


def snapshot_value(snapshot, name, default=0):
    """The scalar value of one metric in a snapshot dict (0 when absent)."""
    entry = snapshot.get(name) if snapshot else None
    if not entry:
        return default
    if entry.get("type") == "histogram":
        return entry.get("count", default)
    value = entry.get("value")
    return value if value is not None else default


def merge_cumulative(snapshot, previous, names):
    """Fold earlier counter values into ``snapshot`` for the listed names.

    Used to keep store-level counters (hits/misses/saved seconds) cumulative
    across campaign invocations when rewriting ``metrics.json``.
    """
    for name in names:
        entry = snapshot.get(name)
        earlier = previous.get(name) if previous else None
        if entry is None or earlier is None:
            continue
        if entry.get("type") == "counter" and earlier.get("type") == "counter":
            entry["value"] = entry.get("value", 0) + earlier.get("value", 0)
    return snapshot


def render_metrics(snapshot):
    """A snapshot as an aligned text table (the benchmark-harness look)."""
    from repro.analysis.report import format_table

    rows = []
    for name in sorted(snapshot):
        entry = snapshot[name]
        if entry.get("type") == "histogram":
            value = "count=%d mean=%.4g min=%.4g max=%.4g" % (
                entry.get("count", 0),
                entry.get("mean") or 0.0,
                entry.get("min") or 0.0,
                entry.get("max") or 0.0,
            )
        else:
            value = entry.get("value")
            if isinstance(value, float):
                value = "%.4f" % value
        rows.append({"metric": name, "type": entry.get("type"), "value": value})
    return format_table(rows, columns=["metric", "type", "value"])


def write_metrics_json(path, snapshot):
    """Write a snapshot dict as pretty JSON."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(snapshot, handle, sort_keys=True, indent=2)
        handle.write("\n")


def read_metrics_json(path):
    """Read a snapshot dict back; ``None`` when missing or unreadable."""
    try:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
    except (OSError, ValueError):
        return None
    return data if isinstance(data, dict) else None
