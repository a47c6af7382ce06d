"""Cycle-level event tracing for the RCPN engines.

The paper's pitch for RCPN simulation is *explainability*: tokens move
through places, transitions fire per cycle.  This module records exactly
those events — transition firings, token creations, stalls, squashes with
provenance, and cache hit/miss/fill/writeback traffic — behind a
:class:`TraceConfig` hung off :class:`repro.core.engine.EngineOptions`.

Design constraints (they shape everything here):

* **Zero perturbation.**  Tracing must not change a single statistics
  counter on any backend; the engines only *observe* through the tracer,
  never consult it.  The equivalence suite
  (``tests/integration/test_trace_equivalence.py``) pins traced runs
  bit-identical to untraced ones on every backend.
* **Zero cost when off.**  The interpreted engine holds
  per-category bound methods that are ``None`` when tracing is off, and
  the codegen emitter only writes trace call sites into the source when a
  category is enabled — the tracing-off emitted module is byte-identical
  to one emitted by a trace-unaware build.
* **Stdlib only.**  ``repro.core.engine`` imports this module, so it must
  not import anything from :mod:`repro` (no cycles, no heavy imports).

Events are stored as uniform tuples ``(category, cycle, a, b, c, d)`` in a
bounded ring (a ``deque``), optionally mirrored to pluggable sinks, and
exported as JSONL or Chrome ``trace_event`` JSON (the format Perfetto and
``chrome://tracing`` open directly).

============  =============  ======  =========  =========
category      a              b       c          d
============  =============  ======  =========  =========
``firing``    transition     seq     opclass    pc
``stall``     place          seq     opclass    pc
``squash``    cause          seq     opclass    pc
``token``     explicit place seq     opclass    pc
``cache``     level          kind    address    latency
============  =============  ======  =========  =========

``seq``/``opclass``/``pc`` are ``None`` for generator firings (no token
involved); a ``token`` event's ``a`` is the explicitly requested place or
``None`` when the token was routed by operation class.  ``seq`` is the
instruction's fetch-order number from the processor's decoder, counted
from 0 again after ``Processor.reset()``, so re-running a program — on
either engine — records the same event tuples.
"""

from __future__ import annotations

import json
from collections import Counter, deque
from dataclasses import dataclass

#: Every event category the tracer knows, in canonical order: the default
#: :attr:`TraceConfig.categories`.
TRACE_CATEGORIES = ("firing", "stall", "squash", "token", "cache")

#: An opt-in category recording no events: the generated backend emits
#: ``perf_counter_ns`` accumulators around every spliced hook site and
#: sums them, per hook, into :attr:`Tracer.metrics` (see
#: :class:`repro.codegen.runtime.HostCost`).  Host nanoseconds never enter
#: the event trace, so traces of one run stay byte-identical.
HOSTCOST = "hostcost"

#: Field names of each category's (a, b, c, d) payload, for dict export.
_FIELDS = {
    "firing": ("transition", "seq", "opclass", "pc"),
    "stall": ("place", "seq", "opclass", "pc"),
    "squash": ("cause", "seq", "opclass", "pc"),
    "token": ("place", "seq", "opclass", "pc"),
    "cache": ("level", "kind", "address", "latency"),
}


@dataclass(frozen=True)
class TraceConfig:
    """What to trace and how much to keep.

    Plain frozen data so it composes with the campaign plumbing:
    ``dataclasses.asdict`` / JSON round-trips work, and the codegen cache
    key can fold the *emission-relevant* parts in only when tracing is
    enabled (see :func:`repro.codegen.cache.codegen_key`).

    * ``enabled`` — master switch; a disabled config behaves exactly like
      ``EngineOptions.trace = None`` (no tracer is built, emitted source
      and cache keys are unchanged).
    * ``capacity`` — ring-buffer size in events; the oldest events are
      dropped once full (``Tracer.dropped`` counts them).  Sinks see every
      event regardless of capacity.
    * ``categories`` — subset of :data:`TRACE_CATEGORIES` to record, plus
      optionally :data:`HOSTCOST`.
    """

    enabled: bool = True
    capacity: int = 200_000
    categories: tuple = TRACE_CATEGORIES

    def __post_init__(self):
        # JSON round-trips deliver lists; normalise so asdict/key folding
        # is stable and membership checks stay cheap.
        object.__setattr__(self, "categories", tuple(self.categories))
        unknown = [c for c in self.categories if c not in TRACE_CATEGORIES + (HOSTCOST,)]
        if unknown:
            raise ValueError(
                "unknown trace categories %r; expected a subset of %r"
                % (unknown, TRACE_CATEGORIES + (HOSTCOST,))
            )
        if not isinstance(self.capacity, int) or self.capacity < 1:
            raise ValueError("trace capacity %r must be a positive integer" % (self.capacity,))


def build_tracer(config, engine=None):
    """Build the :class:`Tracer` for ``config``, or ``None`` when tracing is off."""
    if config is None or not getattr(config, "enabled", False):
        return None
    if not config.categories:
        return None
    return Tracer(config, engine=engine)


class Tracer:
    """Bounded event recorder attached to one engine.

    The per-category methods (:meth:`firing`, :meth:`stall`, ...) are the
    hot-path entry points; engines cache them as bound attributes (or
    ``None``) so the tracing-off cost is one attribute load per site at
    most — and literally zero for the generated backends, whose untraced
    source contains no call sites at all.
    """

    def __init__(self, config, engine=None):
        self.config = config
        self._engine = engine
        self._ring = deque(maxlen=config.capacity)
        self._total = 0
        self._sinks = []
        self._categories = frozenset(config.categories)
        #: Per-hook host-time counters of a ``hostcost`` run, else ``None``.
        self.metrics = None
        if HOSTCOST in self._categories:
            # Imported here: repro.observe.metrics is stdlib-only, but this
            # module keeps its own import list stdlib-only too.
            from repro.observe.metrics import MetricsRegistry

            self.metrics = MetricsRegistry()

    # -- configuration ------------------------------------------------------
    def wants(self, category):
        """True when ``category`` is enabled in this tracer's config."""
        return category in self._categories

    def add_sink(self, sink):
        """Attach a callable receiving every recorded event tuple.

        Sinks see events in order and regardless of ring capacity, which is
        what makes streaming exports (JSONL to disk) lossless while the
        in-memory ring stays bounded.
        """
        self._sinks.append(sink)

    # -- recording ----------------------------------------------------------
    def _record(self, event):
        self._ring.append(event)
        self._total += 1
        for sink in self._sinks:
            sink(event)

    def firing(self, cycle, transition, token):
        if token is not None:
            self._record(("firing", cycle, transition, token.seq, token.opclass, token.pc))
        else:
            self._record(("firing", cycle, transition, None, None, None))

    def stall(self, cycle, place, token):
        self._record(("stall", cycle, place, token.seq, token.opclass, token.pc))

    def squash(self, cycle, cause, token):
        self._record(("squash", cycle, cause, token.seq, token.opclass, token.pc))

    def token_created(self, cycle, token, place=None):
        name = place if place is None or isinstance(place, str) else place.name
        self._record(("token", cycle, name, token.seq, token.opclass, token.pc))

    def cache(self, level, kind, address, latency):
        # Cache accesses happen inside transition actions; ``engine.cycle``
        # is the in-flight cycle on every backend.
        cycle = self._engine.cycle if self._engine is not None else 0
        self._record(("cache", cycle, level, kind, address, latency))

    # -- inspection ---------------------------------------------------------
    @property
    def events(self):
        """The retained events, oldest first."""
        return list(self._ring)

    @property
    def recorded(self):
        """Total events recorded, including those the ring has dropped."""
        return self._total

    @property
    def dropped(self):
        """Events lost to ring-capacity eviction."""
        return self._total - len(self._ring)

    def counts(self):
        """Events retained per category."""
        return Counter(event[0] for event in self._ring)

    def firing_counts(self):
        """Retained firing events per transition name.

        With a ring large enough to hold the whole run this equals
        ``stats.transition_firings`` exactly — the trace-content golden
        test's invariant.
        """
        return Counter(event[2] for event in self._ring if event[0] == "firing")

    def clear(self):
        """Drop all recorded events (``engine.reset()`` calls this)."""
        self._ring.clear()
        self._total = 0

    # -- metadata -----------------------------------------------------------
    def metadata(self):
        """Static model facts needed to interpret the event stream.

        Written as the first JSONL line and embedded in the Chrome export:
        the transition -> (source/target place, stage) map lets lifetime
        reconstruction recover per-stage residency from firing events
        alone, without per-move events on the hot path.
        """
        meta = {
            "type": "meta",
            "model": None,
            "categories": sorted(self._categories),
            "recorded": self._total,
            "dropped": self.dropped,
            "stages": [],
            "places": {},
            "transitions": {},
            "entries": {},
        }
        net = getattr(self._engine, "net", None) if self._engine is not None else None
        if net is None:
            return meta
        meta["model"] = net.name
        meta["stages"] = list(net.stages.keys())
        for name, place in net.places.items():
            meta["places"][name] = place.stage.name if place.stage is not None else None
        for transition in net.transitions:
            source = transition.source
            target = transition.target_place
            meta["transitions"][transition.name] = {
                "source": source.name if source is not None else None,
                "source_stage": (
                    source.stage.name if source is not None and source.stage else None
                ),
                "target": target.name if target is not None else None,
                "target_stage": (
                    target.stage.name
                    if target is not None and not target.is_end and target.stage
                    else None
                ),
                "end": bool(target is not None and target.is_end),
                "consumes": bool(transition.consumes_token),
            }
        entry_place_for = getattr(net, "entry_place_for", None)
        if callable(entry_place_for):
            for opclass in getattr(net, "operation_classes", ()):
                try:
                    place = entry_place_for(opclass)
                except Exception:
                    continue
                if place is not None:
                    meta["entries"][opclass] = [
                        place.name,
                        place.stage.name if place.stage is not None else None,
                    ]
        return meta

    # -- export -------------------------------------------------------------
    def write_jsonl(self, path):
        """Write the metadata line plus one JSON object per retained event."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(self.metadata(), sort_keys=True) + "\n")
            for event in self._ring:
                handle.write(json.dumps(event_dict(event), sort_keys=True) + "\n")
        return len(self._ring)

    def write_chrome_trace(self, path):
        """Write the retained events as Chrome ``trace_event`` JSON."""
        document = chrome_trace(self.metadata(), [event_dict(e) for e in self._ring])
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle, sort_keys=True)
            handle.write("\n")
        return len(document["traceEvents"])


def event_dict(event):
    """One event tuple as a JSON-friendly dict with category field names."""
    category, cycle = event[0], event[1]
    row = {"cat": category, "cycle": cycle}
    for name, value in zip(_FIELDS[category], event[2:]):
        row[name] = value
    return row


def read_trace(path):
    """Read a JSONL trace back as ``(meta, events)`` (events as dicts)."""
    meta = None
    events = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            row = json.loads(line)
            if row.get("type") == "meta":
                meta = row
            else:
                events.append(row)
    return meta or {"type": "meta"}, events


# -- Chrome trace_event export ---------------------------------------------

def chrome_trace(meta, events):
    """Build a Chrome ``trace_event`` JSON document from a trace.

    The document opens directly in Perfetto (ui.perfetto.dev) or
    ``chrome://tracing``: one *thread* per pipeline stage, one complete
    ("X") slice per instruction's residency in that stage (1 cycle = 1 µs
    of trace time), instant ("i") marks for squashes, and counter ("C")
    tracks for per-cycle stalls and cache misses.
    """
    from repro.observe.lifetime import build_lifetimes

    stages = list(meta.get("stages") or [])
    stage_tid = {name: index for index, name in enumerate(stages)}
    trace_events = [
        {
            "ph": "M",
            "name": "process_name",
            "pid": 0,
            "tid": 0,
            "args": {"name": "model %s" % (meta.get("model") or "?")},
        }
    ]
    for name, tid in stage_tid.items():
        trace_events.append(
            {
                "ph": "M",
                "name": "thread_name",
                "pid": 0,
                "tid": tid,
                "args": {"name": "stage %s" % name},
            }
        )

    lifetimes = build_lifetimes(meta, events)
    end_cycle = 0
    for record in lifetimes.values():
        for visit in record.visits:
            leave = visit.leave if visit.leave is not None else visit.enter + 1
            end_cycle = max(end_cycle, leave)
            trace_events.append(
                {
                    "ph": "X",
                    "name": "i%d %s" % (record.seq, record.opclass or "?"),
                    "cat": "pipeline",
                    "pid": 0,
                    "tid": stage_tid.get(visit.stage, len(stages)),
                    "ts": visit.enter,
                    "dur": max(leave - visit.enter, 1),
                    "args": {
                        "seq": record.seq,
                        "opclass": record.opclass,
                        "pc": record.pc,
                        "stage": visit.stage,
                    },
                }
            )

    stall_cycles = Counter()
    miss_cycles = Counter()
    for event in events:
        if event["cat"] == "stall":
            stall_cycles[event["cycle"]] += 1
        elif event["cat"] == "cache" and event["kind"] == "miss":
            miss_cycles[event["cycle"]] += 1
        elif event["cat"] == "squash":
            trace_events.append(
                {
                    "ph": "i",
                    "name": "squash i%s (%s)" % (event.get("seq"), event.get("cause")),
                    "cat": "squash",
                    "pid": 0,
                    "tid": 0,
                    "ts": event["cycle"],
                    "s": "g",
                }
            )
    for name, counter in (("stalls", stall_cycles), ("cache_misses", miss_cycles)):
        for cycle in sorted(counter):
            trace_events.append(
                {
                    "ph": "C",
                    "name": name,
                    "pid": 0,
                    "tid": 0,
                    "ts": cycle,
                    "args": {name: counter[cycle]},
                }
            )

    return {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "otherData": {
            "model": meta.get("model"),
            "categories": meta.get("categories"),
            "recorded": meta.get("recorded"),
            "dropped": meta.get("dropped"),
            "cycles_per_us": 1,
        },
    }


#: Phases that carry a duration; everything else is point-like.
_CHROME_REQUIRED = {
    "X": ("name", "ts", "dur", "pid", "tid"),
    "i": ("name", "ts", "pid", "tid"),
    "C": ("name", "ts", "pid", "tid", "args"),
    "M": ("name", "pid", "tid", "args"),
    "B": ("name", "ts", "pid", "tid"),
    "E": ("ts", "pid", "tid"),
}


def validate_chrome_trace(document):
    """Validate the ``trace_event`` structure; returns a list of problems.

    An empty list means the document is loadable by Perfetto /
    ``chrome://tracing``: a top-level ``traceEvents`` array whose entries
    carry a known phase and that phase's required fields with sane types.
    Used by the CI trace-smoke step (``python -m repro.observe validate``).
    """
    problems = []
    if not isinstance(document, dict):
        return ["top level must be a JSON object, got %s" % type(document).__name__]
    events = document.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents must be a JSON array"]
    if not events:
        problems.append("traceEvents is empty")
    for index, event in enumerate(events):
        where = "traceEvents[%d]" % index
        if not isinstance(event, dict):
            problems.append("%s: not an object" % where)
            continue
        phase = event.get("ph")
        required = _CHROME_REQUIRED.get(phase)
        if required is None:
            problems.append("%s: unknown phase %r" % (where, phase))
            continue
        for field_name in required:
            if field_name not in event:
                problems.append("%s: phase %r missing field %r" % (where, phase, field_name))
        for field_name in ("ts", "dur"):
            value = event.get(field_name)
            if value is not None and not isinstance(value, (int, float)):
                problems.append("%s: %s is not numeric (%r)" % (where, field_name, value))
        if phase == "X" and isinstance(event.get("dur"), (int, float)) and event["dur"] < 0:
            problems.append("%s: negative duration %r" % (where, event["dur"]))
        if len(problems) >= 20:
            problems.append("... (further problems suppressed)")
            break
    return problems
