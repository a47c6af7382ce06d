"""Runtime binding layer between emitted modules and live nets.

An emitted module (:mod:`repro.codegen.emit`) is *net-object free*: it
references places, stages, guards and actions by index into flat lists.
This module is the other half of that contract — it classifies each
transition's guard, action and capacity check for the emitter and the
source verifier (:func:`guard_plan`, :func:`action_plan`,
:func:`transition_capacity_shape`), decides which hooks are spliced as
template source (:func:`splice_plan`) and which places dispatch without
an operation-class compare (:func:`implicit_dispatch`), builds the
index-aligned runtime lists for one engine (:func:`build_runtime`) and
provides the structural digest (:func:`structure_digest`) that joins the
module memo key, so a memoised module is never bound to a net with a
different shape.

The classification exists because the multi-issue elaborator wraps guards
and actions with issue/advance gates
(:meth:`repro.describe.semantics.ArmSemantics.issue_gate`).  The wrappers
carry their unwrapped parts as attributes, which lets the emitter replace
the wrapper call with a direct arbiter call plus the base hook — the
"issue/port budgets specialised away at emit time" optimisation.  Wrappers
without the attributes (hand-rolled gates) degrade gracefully to plain
calls.
"""

from __future__ import annotations

import hashlib
import time

from repro.core.scheduler import structure_signature
from repro.core.token import ReservationToken
from repro.describe.templates import render, template_of


def guard_plan(transition):
    """Classify one transition's guard for emission.

    Returns ``(kind, base, control, port, stage)`` where ``kind`` is one of
    ``"none"``, ``"plain"``, ``"issue"`` or ``"advance"``.  ``base`` is the
    unwrapped guard (may be ``None`` for a bare gate), ``control`` the
    issue arbiter, ``port`` the issue-port literal and ``stage`` the
    source stage of an advance gate.
    """
    guard = transition.guard
    if guard is None:
        return ("none", None, None, None, None)
    if getattr(guard, "issue_gate", False) and hasattr(guard, "base_guard"):
        return ("issue", guard.base_guard, guard.control, guard.port, None)
    if getattr(guard, "advance_gate", False) and hasattr(guard, "base_guard"):
        return ("advance", guard.base_guard, guard.control, None, guard.stage)
    return ("plain", guard, None, None, None)


def action_plan(transition):
    """Classify one transition's action for emission.

    Returns ``(kind, base, control, port)`` with ``kind`` in ``"none"``,
    ``"plain"`` or ``"issue"``.
    """
    action = transition.action
    if action is None:
        return ("none", None, None, None)
    if getattr(action, "issue_gate", False) and hasattr(action, "base_action"):
        return ("issue", action.base_action, action.control, action.port)
    return ("plain", action, None, None)


def transition_capacity_shape(transition):
    """Classify one transition's output-capacity check for emission.

    Returns ``("free",)`` (no check needed), ``("single", stage_name)`` (one
    occupancy comparison) or ``("multi", ((stage_name, count), ...),
    (capacity_stage_names, ...))`` (the general form).  It mirrors the
    interpreted ``_output_capacity_available`` with the token-dependent
    parts resolved statically (in token mode the token is never None).
    """
    token_mode = not transition.is_generator
    source = transition.source
    source_stage = source.stage if source is not None else None
    target = transition.target_place
    if not transition.reservation_outputs and not transition.capacity_stages:
        if target is not None and not target.is_end:
            stage = target.stage
            if stage.capacity is not None and not (token_mode and stage is source_stage):
                return ("single", stage.name)
        return ("free",)
    needed_map = {}
    if target is not None and not target.is_end:
        needed_map[target.stage] = needed_map.get(target.stage, 0) + 1
    for arc in transition.reservation_outputs:
        place = arc.place
        if place is not None and not place.is_end:
            needed_map[place.stage] = needed_map.get(place.stage, 0) + arc.count
    # A token leaving its current stage frees one slot when it stays
    # within the same stage; fold that adjustment into the counts.
    needed = tuple(
        (stage.name, count - (1 if (token_mode and stage is source_stage) else 0))
        for stage, count in needed_map.items()
    )
    return ("multi", needed, tuple(stage.name for stage in transition.capacity_stages))


def splice_plan(net):
    """The hook templates behind ``net``'s transitions, and their constants.

    Returns ``(rows, env)``: per transition of ``net`` one
    ``(guard_template, action_template)`` pair, and the net's constants
    (``net.hook_env``, set by the semantics that elaborated it).  An entry
    is the template only when the transition's guard or action (unwrapped
    from an issue/advance gate) *is* a closure
    :func:`repro.describe.templates.bind` made over that env — identity,
    so a wrapper around it counts as opaque — and ``None`` for an absent
    or opaque hook.  :func:`inlined` says which entries the emitter
    splices; the others it calls, knowing what they do.
    """
    env = getattr(net, "hook_env", None)
    rows = tuple(
        (template_of(guard_plan(t)[1], env), template_of(action_plan(t)[1], env))
        for t in net.transitions
    )
    return rows, env


def inlined(transition, template):
    """True when the emitter splices ``template`` into ``transition``'s site.

    Templates marked ``inline=False`` are called; so is a template that
    reads the token ``t`` on a generator transition (which has none).
    """
    if template is None or not template.inline:
        return False
    if transition.is_generator:
        rendering = render(template, "closure")
        return "t" not in rendering.guard_names | rendering.action_names
    return True


def opaque_hooks(net, rows):
    """True when some guard or action of ``net`` is not a hook template.

    ``rows`` is :func:`splice_plan`'s.  An opaque hook may emit a token,
    into any place, or set a token's delay.
    """
    return any(
        (guard is None and guard_plan(transition)[1] is not None)
        or (action is None and action_plan(transition)[1] is not None)
        for transition, (guard, action) in zip(net.transitions, rows)
    )


def implicit_dispatch(net, rows):
    """``{place id: opclass}`` for places dispatched without an opclass compare.

    A place qualifies when its sub-net handles one operation class and
    only its own sub-net's transitions deposit tokens into it, and no hook
    of the net is opaque: the hook templates emit only to the entry place
    of the emitted token's class, so nothing else can put a token of
    another class there.
    """
    if opaque_hooks(net, rows):
        return {}
    foreign = {
        id(transition.target_place)
        for transition in net.transitions
        if transition.target_place is not None
        and transition.target_place.subnet is not transition.subnet
    }
    return {
        id(place): place.subnet.opclasses[0]
        for place in net.places.values()
        if len(place.subnet.opclasses) == 1 and id(place) not in foreign
    }


def gate_signature(net):
    """Name-level summary of the gate classification of every transition.

    Part of :func:`structure_digest`: gates are *behaviour* and therefore
    invisible to :func:`repro.core.scheduler.structure_signature`, but the
    emitter bakes their ports and shapes into the source, so two nets that
    differ only in gating must not share an emitted module.
    """
    rows = []
    for transition in net.transitions:
        gkind, gbase, _, gport, gstage = guard_plan(transition)
        akind, abase, _, aport = action_plan(transition)
        rows.append(
            (
                transition.name,
                gkind,
                gbase is not None,
                gport,
                gstage.name if gstage is not None else None,
                akind,
                abase is not None,
                aport,
            )
        )
    return tuple(rows)


def structure_digest(net):
    """Digest of everything an emitted module bakes into its source."""
    rows, _env = splice_plan(net)
    spliced = tuple(
        tuple(template.key if template is not None else None for template in row)
        for row in rows
    )
    payload = repr((structure_signature(net), gate_signature(net), spliced))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def build_runtime(engine):
    """Build the binding dict an emitted module's ``make_run_cycles`` consumes."""
    net = engine.net
    guards = []
    actions = []
    controls = []
    for transition in net.transitions:
        gkind, gbase, gcontrol, _gport, _gstage = guard_plan(transition)
        akind, abase, acontrol, _aport = action_plan(transition)
        guards.append(gbase if gkind != "none" else None)
        actions.append(abase if akind != "none" else None)
        controls.append(gcontrol if gcontrol is not None else acontrol)
    _rows, env = splice_plan(net)
    tracer = getattr(engine, "tracer", None)
    return {
        "engine": engine,
        "ctx": engine.ctx,
        # The constants the spliced hook templates read.
        "hook_env": env if env is not None else {},
        "deposit": engine._deposit,
        "entry_place_for": net.entry_place_for,
        # opclass -> entry place, for the emission drain; classes without
        # one fall back to entry_place_for and its ModelError.
        "entry_places": {
            opclass: subnet.entry_place
            for subnet in net.subnets.values()
            if subnet.entry_place is not None
            for opclass in subnet.opclasses
        },
        "pool": engine._reservation_pool,
        "ReservationToken": ReservationToken,
        "places": list(engine.schedule.order),
        "stages": list(net.stages.values()),
        "guards": guards,
        "actions": actions,
        "controls": controls,
        # Trace hooks for traced-emission modules; untraced modules never
        # read them.
        "trace_firing": getattr(engine, "_trace_firing", None),
        "trace_stall": getattr(engine, "_trace_stall", None),
        "trace_token": getattr(engine, "_trace_token", None),
        "hostcost": HostCost(tracer.metrics) if getattr(tracer, "metrics", None) is not None else None,
        "perf_counter_ns": time.perf_counter_ns,
    }


class HostCost:
    """Per-hook host-time accumulators of a ``hostcost`` emission.

    Every spliced guard and action site of a module emitted with the
    ``hostcost`` trace category reports its ``perf_counter_ns`` span here.
    The counters live in the tracer's
    :class:`~repro.observe.metrics.MetricsRegistry` as
    ``hostcost.<hook>.<guard|action>.ns`` and ``.calls``; nothing enters
    the event trace.
    """

    def __init__(self, registry):
        self.registry = registry

    def _counters(self, hook, kind):
        prefix = "hostcost.%s.%s" % (hook, kind)
        return (
            self.registry.counter(prefix + ".ns", "host ns in the spliced %s of %s" % (kind, hook)),
            self.registry.counter(prefix + ".calls", "spliced %s runs of %s" % (kind, hook)),
        )

    def guard(self, hook):
        """``timed(start, result) -> result`` for one spliced guard."""
        elapsed, calls = self._counters(hook, "guard")
        clock = time.perf_counter_ns

        def timed(start, result):
            elapsed.value += clock() - start
            calls.value += 1
            return result

        return timed

    def action(self, hook):
        """``timed(start)`` for one spliced action."""
        elapsed, calls = self._counters(hook, "action")
        clock = time.perf_counter_ns

        def timed(start):
            elapsed.value += clock() - start
            calls.value += 1

        return timed
