"""Runtime binding layer between emitted modules and live nets.

An emitted module (:mod:`repro.codegen.emit`) is *net-object free*: it
references places, stages, guards and actions by index into flat lists.
This module is the other half of that contract — it classifies each
transition's guard, action and capacity check for the emitter and the
source verifier (:func:`guard_plan`, :func:`action_plan`,
:func:`transition_capacity_shape`), builds the index-aligned runtime
lists for one engine (:func:`build_runtime`) and provides the structural
digest (:func:`structure_digest`) that joins the module memo key, so a
memoised module is never bound to a net with a different shape.

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

from repro.core.scheduler import structure_signature
from repro.core.token import ReservationToken


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
    payload = repr((structure_signature(net), gate_signature(net)))
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
    return {
        "engine": engine,
        "ctx": engine.ctx,
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
    }
