"""Runtime binding layer between emitted modules and live nets.

An emitted module (:mod:`repro.codegen.emit`) is *net-object free*: it
references places, stages, guards and actions by index into flat lists.
This module is the other half of that contract — it classifies each
transition's capacity check for the emitter and the source verifier
(:func:`transition_capacity_shape`), decides which hooks are spliced as
template source (:func:`splice_plan`), with which emit-time facts each
splice is rendered (:func:`splice_site`), and which places dispatch
without an operation-class compare (:func:`implicit_dispatch`), builds the
index-aligned runtime lists for one engine (:func:`build_runtime`) and
provides the structural digest (:func:`structure_digest`) that joins the
module memo key, so a memoised module is never bound to a net with a
different shape.

The multi-issue gates need no case here: they are hook templates
(:meth:`repro.describe.semantics.ArmSemantics.issue_gate`), spliced or
called like any other hook.
"""

from __future__ import annotations

import hashlib
import time

from repro.core.scheduler import structure_signature
from repro.core.token import ReservationToken
from repro.describe.templates import Site, render, template_of


def transition_capacity_shape(transition):
    """Classify one transition's output-capacity check for emission.

    Renders the transition's static plan
    (:func:`repro.core.scheduler.capacity_plan`, which the schedule set),
    the one statement of the rule both engines read.  Returns ``("free",)``
    (no check needed), ``("single", stage_name, max_occupancy)`` (a plain
    move's one occupancy comparison) or ``("multi", deposits, capacity)``
    for a transition with reservation outputs or capacity stages, where
    both are ``((stage_name, max_occupancy), ...)``: the plan's pairs for
    the stages it deposits into, then for its capacity stages.
    """
    plan = transition.capacity_plan
    split = len(plan) - sum(1 for stage in transition.capacity_stages if stage.capacity is not None)
    deposits = tuple((stage.name, limit) for stage, limit in plan[:split])
    if transition.reservation_outputs or transition.capacity_stages:
        return ("multi", deposits, tuple((stage.name, limit) for stage, limit in plan[split:]))
    if deposits:
        return ("single",) + deposits[0]
    return ("free",)


def splice_plan(net):
    """The hook templates behind ``net``'s transitions, and their constants.

    Returns ``(rows, env)``: per transition of ``net`` one
    ``(guard_template, action_template)`` pair, and the net's constants
    (``net.hook_env``, set by the semantics that elaborated it).  An entry
    is the template only when the transition's guard or action *is* a
    closure :func:`repro.describe.templates.bind` made over that env —
    identity, so a wrapper around it counts as opaque — and ``None`` for
    an absent or opaque hook.  :func:`inlined` says which entries the emitter
    splices; the others it calls, knowing what they do.
    """
    env = getattr(net, "hook_env", None)
    rows = tuple(
        (template_of(t.guard, env), template_of(t.action, env))
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
        (guard is None and transition.guard is not None)
        or (action is None and transition.action is not None)
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
        id(transition.target)
        for transition in net.transitions
        if transition.target is not None
        and transition.target.subnet is not transition.subnet
    }
    return {
        id(place): place.subnet.opclasses[0]
        for place in net.places.values()
        if len(place.subnet.opclasses) == 1 and id(place) not in foreign
    }


def absent_constants(net):
    """The names of ``net``'s hook constants bound to ``None``."""
    env = getattr(net, "hook_env", None) or {}
    return frozenset(name for name, value in env.items() if value is None)


def entry_stage(net, transition, template):
    """``(stage, two_list)`` of the entry place a token ``template``'s action
    emits on ``transition`` joins, where the enable test proves it has room.

    That holds when every sub-net's entry place lies in one stage and
    shares one ``two_list`` flag, ``transition`` names that stage among
    its capacity stages, deposits nothing else into it, and the action
    emits exactly one token — the fetch transitions' shape.  Otherwise
    ``None``: the emission goes through the engine's checked deposit.
    """
    if template is None or not template.emits_once:
        return None
    entries = [subnet.entry_place for subnet in net.subnets.values() if subnet.entry_place is not None]
    stages = {id(place.stage): place.stage for place in entries}
    flags = {place.two_list for place in entries}
    if len(stages) != 1 or len(flags) != 1:
        return None
    (stage,) = stages.values()
    if stage.capacity is None or not any(s is stage for s in transition.capacity_stages):
        return None
    deposits = [transition.target] + [arc.place for arc in transition.reservation_outputs]
    if any(place is not None and place.stage is stage for place in deposits):
        return None
    return stage, flags.pop()


def splice_site(net, transition, template):
    """The :class:`~repro.describe.templates.Site` ``template`` is spliced
    at on ``transition``: the facts of the net its rendering folds in.

    Stage locals are named as the emitter binds them (``sN``, N the
    stage's index in ``net.stages``).
    """
    stage_index = {id(stage): index for index, stage in enumerate(net.stages.values())}
    source = transition.source
    entry = entry_stage(net, transition, template)
    return Site(
        delay=transition.delay,
        source_stage=None if source is None else "s%d" % stage_index[id(source.stage)],
        entry=None if entry is None else (
            "s%d" % stage_index[id(entry[0])], "pending" if entry[1] else "tokens"
        ),
        absent=absent_constants(net),
    )


class EntryPlaces(dict):
    """Operation class -> entry place of the sub-net handling it.

    A class without one is looked up with ``net.entry_place_for``, which
    raises the :class:`~repro.core.exceptions.ModelError` the interpreted
    delivery raises.
    """

    def __init__(self, net):
        super().__init__(
            (opclass, subnet.entry_place)
            for subnet in net.subnets.values()
            if subnet.entry_place is not None
            for opclass in subnet.opclasses
        )
        self._lookup = net.entry_place_for

    def __missing__(self, opclass):
        return self._lookup(opclass)


def structure_digest(net):
    """Digest of everything an emitted module bakes into its source.

    Beside the net's structure, each transition's guard and action enter
    as their template's key, ``"opaque"`` (a hook the module calls,
    assuming it may do anything) or ``None`` (absent, so no call), and
    each place's ``two_list`` flag as the schedule left it (the emitter
    binds a two-list place's ``pending`` list and commits it each cycle),
    each sub-net's entry place and the hook constants bound to ``None``
    (the spliced fetch deposits into the entry place directly and folds
    the absent constants' tests away).
    """
    rows, _env = splice_plan(net)
    hooks = tuple(
        tuple(
            None if hook is None else "opaque" if template is None else template.key
            for hook, template in zip((transition.guard, transition.action), row)
        )
        for transition, row in zip(net.transitions, rows)
    )
    two_list = tuple(place.name for place in net.places.values() if place.two_list)
    entries = tuple(
        (name, subnet.entry_place.name if subnet.entry_place is not None else None)
        for name, subnet in net.subnets.items()
    )
    payload = repr((structure_signature(net), hooks, two_list, entries, sorted(absent_constants(net))))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def build_runtime(engine):
    """Build the binding dict an emitted module's ``make_run_cycles`` consumes."""
    net = engine.net
    env = getattr(net, "hook_env", None)
    tracer = getattr(engine, "tracer", None)
    return {
        "engine": engine,
        "ctx": engine.ctx,
        # The constants the spliced hook templates read.
        "hook_env": env if env is not None else {},
        "deposit": engine._deposit,
        # opclass -> entry place, for the spliced emissions.
        "entry_places": EntryPlaces(net),
        "pool": engine._reservation_pool,
        "ReservationToken": ReservationToken,
        "places": list(engine.schedule.order),
        "stages": list(net.stages.values()),
        "guards": [transition.guard for transition in net.transitions],
        "actions": [transition.action for transition in net.transitions],
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
