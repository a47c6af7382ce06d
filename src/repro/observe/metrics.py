"""A small counters/gauges registry for in-simulator and lint metrics.

A ``hostcost`` trace sums the host nanoseconds and call counts of every
spliced hook site into a :class:`MetricsRegistry` on
:attr:`repro.observe.trace.Tracer.metrics` (see
:class:`repro.codegen.runtime.HostCost`), and ``python -m repro.analyze lint|verify
--metrics-json`` records lint rule hits into one.

Everything is plain data by design: a snapshot is a JSON-compatible dict,
so it crosses process boundaries and lands in files without pickling.
"""

from __future__ import annotations

import json


class Counter:
    """A monotonically increasing value (counts, accumulated nanoseconds)."""

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
    """A point-in-time value (model counts, configured widths)."""

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

    def snapshot(self):
        """Every metric as a plain ``{name: {type, description, value}}`` dict."""
        return {name: self._metrics[name].snapshot() for name in sorted(self._metrics)}


def write_metrics_json(path, snapshot):
    """Write a snapshot dict as pretty JSON."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(snapshot, handle, sort_keys=True, indent=2)
        handle.write("\n")
