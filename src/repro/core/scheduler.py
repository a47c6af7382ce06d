"""Static pre-simulation analysis of an RCPN model.

This module implements the engine optimisations the paper derives from
RCPN structure (Section 4):

1. :func:`calculate_sorted_transitions` — the ``CalculateSortedTransitions``
   pseudo-code of Figure 6: for every (place, operation class) pair the list
   of candidate output transitions, sorted by arc priority, is extracted
   once before simulation starts.
2. :func:`place_evaluation_order` / :func:`mark_feedback_places` — places are
   ordered in reverse topological order of the instruction flow so tokens of
   the previous cycle are read before being overwritten; only places on
   feedback edges need the two-list (master/slave) storage scheme.
3. :func:`capacity_plan` — each transition's output-capacity rule is
   reduced once to occupancy limits on the stages it fills;
   :func:`issue_plan` gives each transition of a multi-issue model its
   issue or advance gate.

The analyses are pure functions of the model *structure*, so
:func:`structure_signature` alone keys :data:`SCHEDULE_CACHE`: any net whose
structure was scheduled before in the process — a rebuild of the same spec,
another spec of the same shape, a hand-built net — re-uses that analysis as
a :class:`ScheduleBlueprint`, rehydrated against the new net's objects
instead of being re-derived.
"""

from __future__ import annotations

from collections import defaultdict


def calculate_sorted_transitions(net):
    """Build the ``sorted_transitions[place, opclass]`` dispatch table.

    Only transitions belonging to the sub-net that handles the operation
    class are candidates, mirroring the paper's observation that "an
    instruction token only goes through transitions of the sub-net
    corresponding to its type".
    """
    table = {}
    transitions_by_source = defaultdict(list)
    for transition in net.transitions:
        if transition.source is not None:
            transitions_by_source[transition.source.name].append(transition)

    for place in net.places.values():
        candidates = transitions_by_source.get(place.name, [])
        for opclass in net.operation_classes:
            subnet = net.subnet_for(opclass)
            selected = [t for t in candidates if t.subnet is subnet]
            selected.sort(key=lambda t: t.priority)
            table[(place.name, opclass)] = tuple(selected)
    return table


def place_flow_graph(net):
    """Directed graph over places induced by instruction-token movement.

    There is an edge ``p -> q`` when some transition consumes its instruction
    token from ``p`` and deposits it into ``q``.  Reservation-token arcs are
    ignored: reservation tokens cannot enable a transition by themselves
    (paper Section 4) and therefore do not constrain the evaluation order.
    """
    edges = defaultdict(set)
    for place in net.places.values():
        edges[place.name]  # ensure every place appears as a node
    for transition in net.transitions:
        if transition.source is not None and transition.target is not None:
            edges[transition.source.name].add(transition.target.name)
    return dict(edges)


def place_evaluation_order(net):
    """Places in reverse topological order of the instruction flow.

    Downstream places come first so that, within one cycle, a stage drains
    before the upstream stage refills it — the same-cycle ripple advance of a
    real pipeline.  Cycles in the flow graph (feedback paths) are broken
    arbitrarily; the places targeted by the broken edges are the ones
    :func:`mark_feedback_places` flags for two-list storage.
    """
    graph = place_flow_graph(net)
    visited = {}
    order = []

    def visit(node):
        state = visited.get(node)
        if state == "done":
            return
        if state == "active":
            return  # feedback edge; ignore for ordering purposes
        visited[node] = "active"
        for successor in sorted(graph.get(node, ())):
            visit(successor)
        visited[node] = "done"
        order.append(node)

    for node in sorted(graph):
        visit(node)

    # ``order`` is post-order: successors (downstream places) appear before
    # their predecessors, which is exactly the reverse-topological evaluation
    # order the engine needs.
    return [net.places[name] for name in order]


def mark_feedback_places(net, order=None):
    """Identify places that need two-list (master/slave) storage.

    A place needs it when some transition deposits tokens into it although
    it has already been evaluated earlier in the same cycle — i.e. the edge
    goes against the evaluation order (a feedback edge or a self loop).
    Model authors may additionally mark places explicitly via
    ``two_list=True``.
    """
    if order is None:
        order = place_evaluation_order(net)
    position = {place.name: index for index, place in enumerate(order)}
    feedback = set()
    for transition in net.transitions:
        source, target = transition.source, transition.target
        if source is None or target is None:
            continue
        # The engine evaluates places in ``order``; an edge whose target is
        # evaluated before (or at the same position as) its source would let
        # a token be seen again in the cycle it was written.
        if position[target.name] >= position[source.name]:
            feedback.add(target.name)
        # Reservation-token outputs into already-evaluated places also need
        # buffering so the producing cycle cannot consume them immediately.
    for transition in net.transitions:
        for arc in transition.reservation_outputs:
            if (
                arc.place is not None
                and transition.source is not None
                and position[arc.place.name] >= position[transition.source.name]
            ):
                feedback.add(arc.place.name)
    return [net.places[name] for name in sorted(feedback)]


def capacity_plan(transition):
    """The output-capacity part of ``transition``'s enable rule, resolved once.

    The rule: every stage the firing deposits into — the instruction
    token's target and each reservation output — must have room for what
    it receives, less the slot the instruction token frees when it stays
    within its own stage, and every one of ``capacity_stages`` must have
    room for one more token.  A transition is in token mode when it is not
    a generator; only then does a token depart.

    Returns ``((stage, max_occupancy), ...)``: the transition may fire
    only while ``stage._occupancy <= max_occupancy`` for every pair.  The
    pairs of the deposit stages come first, in deposit order, then those
    of the capacity stages.  Unlimited stages and deposits the departing
    token covers need no test and have no pair (a stage never holds more
    than its capacity, since :meth:`~repro.core.place.Place.deposit`
    refuses).  Both engines read the plan: the interpreted enable rule
    directly, the emitter as one literal ``sK._occupancy <= M`` comparison
    per pair (:func:`repro.codegen.emit.emit_module_source`).
    """
    source_stage = transition.source.stage if not transition.is_generator else None
    needed = {}
    target = transition.target
    if target is not None and not target.is_end:
        needed[target.stage] = 1
    for arc in transition.reservation_outputs:
        place = arc.place
        if place is not None and not place.is_end:
            needed[place.stage] = needed.get(place.stage, 0) + arc.count
    plan = []
    for stage, count in needed.items():
        if stage is source_stage:
            count -= 1
        if stage.capacity is not None and count > 0:
            plan.append((stage, stage.capacity - count))
    for stage in transition.capacity_stages:
        if stage.capacity is not None:
            plan.append((stage, stage.capacity - 1))
    return tuple(plan)


def issue_plan(transition, issue):
    """The multi-issue gate in ``transition``'s enable rule, resolved once.

    ``issue`` is the net's :class:`~repro.describe.spec.IssueSpec`
    (``net.spec.issue``).  With ``issue.width > 1`` a transition leaving a
    place of the issue stage gets ``("issue", port, width, limit)`` (its
    class's port and that port's per-cycle limit, ``None`` for none), one
    leaving a stage its sub-net visits before that gets ``("advance",
    stage)``, any other ``None``; the rules are
    :class:`~repro.describe.substrate.IssueControl`'s.  The interpreted
    engine tests the plan between the capacity pairs and the guard, and
    the emitter writes it there.
    """
    if issue is None or not issue.multi or transition.is_generator:
        return None
    source = transition.source
    if source.stage.name == issue.stage:
        port = issue.port_of().get(transition.subnet.opclasses[0])
        return ("issue", port, issue.width, issue.port_limits().get(port))
    for place in transition.subnet.places:
        if place.stage.name == issue.stage:
            return None
        if place.stage is source.stage:
            return ("advance", source.stage)
    return None


def structure_signature(net):
    """A hashable summary of everything the schedule and the emitter read.

    Covers the operation classes (in order), stages (capacity/delay),
    sub-nets (their classes), places (stage, sub-net, delay) and
    transitions (sub-net, endpoints, delay, priority, reservation arcs,
    capacity stages, firing limit) and the issue discipline — the inputs
    of the schedule derivation and of the capacity and issue plans.  It
    is the whole key of
    :data:`SCHEDULE_CACHE`, so two nets with one signature get one
    analysis.  Guards and actions are excluded: the blueprints never
    encode behaviour, only structure (the emitter's digest adds them,
    :func:`repro.codegen.runtime.structure_digest`).  Building the
    signature is O(model size), far cheaper than the analyses it keys.
    """

    def subnet_name(subnet):
        return subnet.name if subnet is not None else None

    opclasses = tuple(net.operation_classes)
    stages = tuple(
        (stage.name, stage.capacity, stage.delay) for stage in net.stages.values()
    )
    subnets = tuple((name, subnet.opclasses) for name, subnet in net.subnets.items())
    places = tuple(
        (place.name, place.stage.name, subnet_name(place.subnet), place.delay)
        for place in net.places.values()
    )
    transitions = tuple(
        (
            transition.name,
            subnet_name(transition.subnet),
            transition.source.name if transition.source is not None else None,
            transition.target.name if transition.target is not None else None,
            transition.delay,
            transition.priority,
            transition.consumes_token,
            tuple((arc.place.name, arc.count) for arc in transition.reservation_inputs),
            tuple((arc.place.name, arc.count) for arc in transition.reservation_outputs),
            tuple(stage.name for stage in transition.capacity_stages),
            transition.max_firings_per_cycle,
        )
        for transition in net.transitions
    )
    issue = getattr(getattr(net, "spec", None), "issue", None)
    issue = (issue.width, issue.stage, issue.ports) if issue is not None and issue.multi else None
    return (opclasses, stages, subnets, places, transitions, issue)


class ScheduleBlueprint:
    """A :class:`StaticSchedule` reduced to names and indices (net-object free).

    Blueprints are what :data:`SCHEDULE_CACHE` stores: place *names* and
    transition *indices* into ``net.transitions`` instead of objects, so a
    blueprint derived from one net can be rehydrated against any net of
    the same :func:`structure_signature`.
    """

    __slots__ = ("place_order", "feedback_places", "dispatch", "generators")

    def __init__(self, place_order, feedback_places, dispatch, generators):
        self.place_order = tuple(place_order)
        self.feedback_places = frozenset(feedback_places)
        #: ``(place_name, opclass) -> tuple of transition indices``.
        self.dispatch = dispatch
        self.generators = tuple(generators)


class GenerationCache:
    """Structure-keyed cache of generation-time blueprints, with counters.

    Holds the static-schedule blueprints (:data:`SCHEDULE_CACHE`), keyed by
    the net's :func:`structure_signature`, so only nets of identical
    structure share entries.  Entries are evicted least-recently-used
    beyond ``max_entries`` so design-space sweeps over thousands of spec
    variants cannot grow memory unboundedly.
    """

    def __init__(self, max_entries=256):
        self._entries = {}
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0

    def lookup(self, key):
        blueprint = self._entries.get(key)
        if blueprint is None:
            self.misses += 1
        else:
            self.hits += 1
            # Refresh recency (dicts iterate in insertion order).
            self._entries[key] = self._entries.pop(key)
        return blueprint

    def store(self, key, blueprint):
        if key not in self._entries and len(self._entries) >= self.max_entries:
            self._entries.pop(next(iter(self._entries)))
        self._entries[key] = blueprint

    def clear(self):
        self._entries.clear()
        self.hits = 0
        self.misses = 0

    def stats(self):
        return {"entries": len(self._entries), "hits": self.hits, "misses": self.misses}


#: Process-wide schedule cache keyed by the structure signature.
SCHEDULE_CACHE = GenerationCache()


class StaticSchedule:
    """The result of the pre-simulation analysis, consumed by the engine.

    Every schedule carries both Section 4 optimisations: each place's
    ``dispatch`` table (the sorted transitions of Figure 6) and two-list
    storage on the feedback places, plus any place its model marked
    ``two_list=True``.  The analysis is served from :data:`SCHEDULE_CACHE`
    when a net of the same structure was scheduled before in the process;
    ``from_cache`` records which way this instance was built.
    """

    def __init__(self, net):
        self.net = net
        key = structure_signature(net)
        blueprint = SCHEDULE_CACHE.lookup(key)
        self.from_cache = blueprint is not None
        if blueprint is not None:
            self._rehydrate(net, blueprint)
        else:
            self._derive(net)
            SCHEDULE_CACHE.store(key, self._to_blueprint())

    # -- fresh derivation ----------------------------------------------------
    def _derive(self, net):
        self.order = place_evaluation_order(net)
        feedback_places = mark_feedback_places(net, self.order)
        self.feedback_place_names = {p.name for p in feedback_places}
        self.generator_transitions = net.generator_transitions()
        self._install(net, calculate_sorted_transitions(net))

    def _install(self, net, sorted_transitions):
        """Mark the two-list places, give every place its dispatch table
        and every transition its :func:`capacity_plan` and
        :func:`issue_plan`."""
        for place in net.places.values():
            if place.name in self.feedback_place_names:
                place.two_list = True
        self.two_list_places = [p for p in net.places.values() if p.two_list]
        self.sorted_transitions = sorted_transitions
        for place in net.places.values():
            place.dispatch = {
                opclass: sorted_transitions[(place.name, opclass)]
                for opclass in net.operation_classes
            }
        issue = getattr(getattr(net, "spec", None), "issue", None)
        for transition in net.transitions:
            transition.capacity_plan = capacity_plan(transition)
            transition.issue_plan = issue_plan(transition, issue)

    def _to_blueprint(self):
        index = {id(t): i for i, t in enumerate(self.net.transitions)}
        return ScheduleBlueprint(
            place_order=(place.name for place in self.order),
            feedback_places=self.feedback_place_names,
            dispatch={
                key: tuple(index[id(t)] for t in transitions)
                for key, transitions in self.sorted_transitions.items()
            },
            generators=(index[id(t)] for t in self.generator_transitions),
        )

    # -- rehydration from a cached blueprint ---------------------------------
    def _rehydrate(self, net, blueprint):
        transitions = net.transitions
        self.order = [net.places[name] for name in blueprint.place_order]
        self.feedback_place_names = set(blueprint.feedback_places)
        self.generator_transitions = [transitions[i] for i in blueprint.generators]
        self._install(
            net,
            {
                key: tuple(transitions[i] for i in indices)
                for key, indices in blueprint.dispatch.items()
            },
        )

    def transitions_for(self, place, opclass):
        """Candidate transitions for an instruction token, in priority order."""
        return place.dispatch.get(opclass, ())
