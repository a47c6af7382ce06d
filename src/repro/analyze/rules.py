"""Structural lint rules over PipelineSpecs and elaborated RCPNs.

The spec-level pass (:func:`lint_spec`) works on the pure-data description
alone — it is what ``register_processor(..., lint=True)`` opts a model
into and what the campaign ``report`` command surfaces.  Its centrepiece
is a per-path *fireability fixpoint* in the siphon/trap tradition: every
place starts empty, a transition is fireable once its source can be
occupied and every reservation it consumes can be produced by an already
fireable producer, and the fixpoint iterates until nothing changes.  What
remains unfireable is dead (AN002); an initially-empty siphon that starves
every exit of an occupied place is a guaranteed jam (AN009); a path whose
``end`` never becomes occupied cannot retire instructions (AN004).  The
check is bounded and exact for the spec vocabulary: no reachability graph
is expanded, only a linear fixpoint over the path's transitions.

The net-level pass (:func:`lint_net`) re-checks the *elaborated* RCPN —
including hand-built nets that never had a spec — for dead dispatch
entries and orphaned places, and adopts
:meth:`~repro.core.net.RCPN.validate` failures as findings instead of
exceptions.  :func:`lint_model` runs both passes for one registry entry;
:func:`lint_registered` sweeps every lint-enabled entry and can fold rule
hit counts into a :class:`repro.observe.MetricsRegistry`.
"""

from __future__ import annotations

from repro.analyze.findings import finding
from repro.core.exceptions import ModelError
from repro.describe.spec import (
    CacheLevelSpec,
    MemorySpec,
    PipelineSpec,
    SpecError,
)


def _problem_lines(message):
    """The per-problem bullet lines of a validate() message (or the whole)."""
    _header, sep, body = str(message).partition(":\n  - ")
    if not sep:
        return [str(message)]
    return body.split("\n  - ")


# ---------------------------------------------------------------------------
# Spec-level lint (AN0xx)
# ---------------------------------------------------------------------------


def _path_fireability(path):
    """The bounded siphon/trap fixpoint of one operation-class path.

    Returns ``(occupied, filled, fireable)``: the nodes an instruction
    token can occupy, the extra-place keys a reservation can reach, and the
    indices of fireable transitions.  Everything starts empty (the initial
    marking of every model), so a key only counts as producible once a
    fireable transition produces it — exactly the empty-siphon argument.
    """
    occupied = {path.stages[0]} if path.stages else set()
    filled = set()
    fireable = set()
    changed = True
    while changed:
        changed = False
        for index, transition in enumerate(path.transitions):
            if index in fireable:
                continue
            if transition.source not in occupied:
                continue
            if any(key not in filled for key in transition.consumes):
                continue
            fireable.add(index)
            occupied.add(transition.target)
            filled.update(transition.produces)
            changed = True
    return occupied, filled, fireable


def _lint_paths(spec, model):
    findings = []
    for path in spec.paths:
        if not path.stages:
            continue  # validate() already rejected this path
        where = "spec:paths[%s]" % path.opclass
        occupied, filled, fireable = _path_fireability(path)
        dead = [
            (index, transition)
            for index, transition in enumerate(path.transitions)
            if index not in fireable
        ]
        for _index, transition in dead:
            blocked = [key for key in transition.consumes if key not in filled]
            if transition.source not in occupied:
                why = "its source %r can never be occupied" % transition.source
            else:
                why = "it consumes %s which no fireable transition produces" % (
                    ", ".join(repr(key) for key in blocked)
                )
            findings.append(finding(
                "AN002", model, where,
                "transition %r can never fire: %s" % (transition.name, why),
            ))
        dead_names = {transition.name for _index, transition in dead}
        for node in sorted(occupied - {"end"}):
            outgoing = [t for t in path.transitions if t.source == node]
            if not outgoing or all(t.name in dead_names for t in outgoing):
                detail = (
                    "has no outgoing transition" if not outgoing
                    else "has only dead exits (%s)"
                    % ", ".join(repr(t.name) for t in outgoing)
                )
                findings.append(finding(
                    "AN009", model, where,
                    "a token reaching %r jams the pipeline: the place %s "
                    "(initially-empty siphon)" % (node, detail),
                ))
        if "end" not in occupied:
            findings.append(finding(
                "AN004", model, where,
                "no fireable transition sequence reaches 'end' from entry "
                "stage %r — instructions of class %r can never retire"
                % (path.stages[0], path.opclass),
            ))
        declared = set(path.stages[1:]) | {extra.key for extra in path.extra_places}
        for node in sorted(declared - occupied - filled):
            findings.append(finding(
                "AN003", model, where,
                "place %r can never receive a token (not the entry, not any "
                "transition's target, never produced into)" % node,
            ))
        consumers = {key for t in path.transitions for key in t.consumes}
        extra_stage = {extra.key: extra.stage for extra in path.extra_places}
        for key in sorted(filled - consumers):
            stage_name = extra_stage.get(key)
            stage = next((s for s in spec.stages if s.name == stage_name), None)
            capacity = stage.capacity if stage is not None else None
            tail = (
                " — stage %r (capacity %d) fills up and blocks"
                % (stage_name, capacity)
                if capacity is not None
                else ""
            )
            findings.append(finding(
                "AN005", model, where,
                "reservation place %r is produced into but never consumed%s"
                % (key, tail),
            ))
    return findings


def _lint_issue_width(spec, model):
    issue = spec.issue
    if not getattr(issue, "multi", False) or issue.stage is None:
        return []
    findings = []
    capacities = {stage.name: stage.capacity for stage in spec.stages}
    narrow = {}
    for path in spec.paths:
        if issue.stage not in path.stages:
            continue
        cut = path.stages.index(issue.stage) + 1
        for stage_name in path.stages[:cut]:
            capacity = capacities.get(stage_name)
            if capacity is not None and capacity < issue.width:
                narrow.setdefault(stage_name, capacity)
    if spec.fetch.capacity_stage:
        capacity = capacities.get(spec.fetch.capacity_stage)
        if capacity is not None and capacity < issue.width:
            narrow.setdefault(spec.fetch.capacity_stage, capacity)
    for stage_name in sorted(narrow):
        findings.append(finding(
            "AN006", model, "spec:stages[%s]" % stage_name,
            "stage %r (capacity %d) sits at or before issue stage %r but is "
            "narrower than the issue width %d — the declared width can never "
            "be sustained" % (stage_name, narrow[stage_name], issue.stage, issue.width),
        ))
    return findings


def _lint_forwarding(spec, model):
    if spec.hazards.forward_states or spec.hazards.s1_forward_state is not None:
        return []
    deepest = max(spec.paths, key=lambda path: len(path.stages), default=None)
    if deepest is None or len(deepest.stages) < 3:
        return []
    return [finding(
        "AN007", model, "spec:hazards.forward_states",
        "no forward states on a %d-stage path (%r): every producer-consumer "
        "register dependence stalls until writeback"
        % (len(deepest.stages), deepest.opclass),
    )]


def _lint_memory(spec, model):
    memory = spec.memory
    if not isinstance(memory, MemorySpec):
        return []
    findings = []
    l1_levels = [
        (field, level)
        for field, level in (
            ("l1_instruction", memory.l1_instruction),
            ("l1_data", memory.l1_data),
            ("l1_unified", memory.l1_unified),
        )
        if isinstance(level, CacheLevelSpec)
    ]
    l2 = memory.l2 if isinstance(memory.l2, CacheLevelSpec) else None
    levels = list(l1_levels) + ([("l2", l2)] if l2 is not None else [])
    for field, level in levels:
        where = "spec:memory.%s" % field
        if (
            isinstance(level.size_bytes, int)
            and isinstance(level.line_bytes, int)
            and isinstance(level.associativity, int)
            and level.line_bytes > 0
            and level.associativity > 0
        ):
            sets = level.size_bytes // (level.line_bytes * level.associativity)
            if sets >= 1 and level.associativity > sets:
                findings.append(finding(
                    "AN008", model, where,
                    "cache %r: associativity %d exceeds its %d set(s) — more "
                    "ways than indexable lines" % (level.name, level.associativity, sets),
                ))
    if l2 is not None:
        for field, l1 in l1_levels:
            if l2.size_bytes < l1.size_bytes:
                findings.append(finding(
                    "AN008", model, "spec:memory.l2",
                    "L2 %r (%d B) is smaller than L1 %s %r (%d B)"
                    % (l2.name, l2.size_bytes, field, l1.name, l1.size_bytes),
                ))
            if l2.line_bytes < l1.line_bytes:
                findings.append(finding(
                    "AN008", model, "spec:memory.l2",
                    "L2 %r line size %d B is smaller than L1 %s %r line size %d B"
                    % (l2.name, l2.line_bytes, field, l1.name, l1.line_bytes),
                ))
        if (
            isinstance(memory.memory_latency, int)
            and l2.hit_latency >= memory.memory_latency
        ):
            findings.append(finding(
                "AN008", model, "spec:memory.l2",
                "L2 %r hit latency %d is no better than the memory latency %d "
                "— the second level never pays off"
                % (l2.name, l2.hit_latency, memory.memory_latency),
            ))
    return findings


def _lint_fetch_stall(spec, model):
    stall_stage = spec.fetch.stall_stage
    if not stall_stage:
        return []
    for path in spec.paths:
        produced = {key for t in path.transitions for key in t.produces}
        for extra in path.extra_places:
            if extra.stage == stall_stage and extra.key in produced:
                return []
        if stall_stage in path.stages:
            return []  # instruction flow itself occupies the stall stage
    return [finding(
        "AN010", model, "spec:fetch.stall_stage",
        "fetch stalls on stage %r but no transition ever parks a reservation "
        "there — the stall latch can never engage" % stall_stage,
    )]


def lint_spec(spec, model=None):
    """Spec-level findings for one :class:`PipelineSpec` (rules AN0xx)."""
    model = model or getattr(spec, "name", "<spec>")
    if not isinstance(spec, PipelineSpec):
        return [finding(
            "AN001", str(model), "spec",
            "expected a PipelineSpec, got %r" % (spec,),
        )]
    try:
        spec.validate()
    except SpecError as error:
        return [
            finding("AN001", model, "spec:validate", line)
            for line in _problem_lines(error)
        ]
    findings = []
    findings.extend(_lint_paths(spec, model))
    findings.extend(_lint_issue_width(spec, model))
    findings.extend(_lint_forwarding(spec, model))
    findings.extend(_lint_memory(spec, model))
    findings.extend(_lint_fetch_stall(spec, model))
    return findings


# ---------------------------------------------------------------------------
# Elaborated-net lint (AN1xx)
# ---------------------------------------------------------------------------


def lint_net(net, model=None):
    """Findings over an elaborated (or hand-built) RCPN (rules AN1xx)."""
    model = model or net.name
    findings = []
    try:
        net.validate()
    except ModelError as error:
        findings.extend(
            finding("AN101", model, "net:validate", line)
            for line in _problem_lines(error)
        )
    instruction_places = {
        id(subnet.entry_place): subnet.entry_place
        for subnet in net.subnets.values()
        if subnet.entry_place is not None
    }
    reachable = set(instruction_places)
    for transition in net.transitions:
        target = transition.target
        if target is not None:
            reachable.add(id(target))
            if not target.is_end:
                instruction_places.setdefault(id(target), target)
        for arc in transition.reservation_outputs:
            if arc.place is not None:
                reachable.add(id(arc.place))
    for place in instruction_places.values():
        if place.is_end:
            continue
        subnet = place.subnet
        if subnet is None or not subnet.opclasses:
            continue
        outgoing = [
            t for t in net.transitions
            if t.source is place and t.subnet is subnet
        ]
        if not outgoing:
            findings.append(finding(
                "AN102", model, "net:place %r" % place.name,
                "instruction place of sub-net %r has no dispatch candidates "
                "for %s — a token arriving here can never leave"
                % (subnet.name, ", ".join(repr(c) for c in subnet.opclasses)),
            ))
    for place in net.places.values():
        if place.is_end or id(place) in reachable:
            continue
        findings.append(finding(
            "AN103", model, "net:place %r" % place.name,
            "place is neither a sub-net entry nor any transition's output — "
            "no token can ever arrive",
        ))
    return findings


# ---------------------------------------------------------------------------
# Registry sweeps
# ---------------------------------------------------------------------------


def lint_model(name, elaborated=True):
    """All lint findings for one registered model.

    Runs the spec pass, then (``elaborated=True`` and no spec-level errors)
    elaborates the model and runs the net pass.  Elaboration failures are
    reported as AN101 findings rather than raised, so one broken model
    never aborts a sweep.
    """
    from repro.processors.registry import get_spec

    spec = get_spec(name)
    findings = lint_spec(spec, model=name)
    if not elaborated or any(entry.severity == "error" for entry in findings):
        return findings
    try:
        from repro.describe.elaborate import elaborate_net

        net, _decoder, _core, _memory, _semantics = elaborate_net(spec)
    except Exception as error:  # noqa: BLE001 - any elaboration failure is a finding
        findings.append(finding(
            "AN101", name, "net:elaborate",
            "elaboration failed: %s: %s" % (type(error).__name__, error),
        ))
        return findings
    findings.extend(lint_net(net, model=name))
    return findings


def lint_registered(names=None, elaborated=True):
    """Lint every (or the named) lint-enabled registered models.

    Returns ``{model: [Finding, ...]}`` in registry order.  The command
    line's ``--metrics-json`` records rule hits and clean/dirty gauges
    from it.
    """
    from repro.processors.registry import get_entry, processor_names

    if names is None:
        names = [
            name for name in processor_names()
            if getattr(get_entry(name), "lint", True)
        ]
    results = {}
    for name in names:
        results[name] = lint_model(name, elaborated=elaborated)
    return results
