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
   reduced once to occupancy limits on the stages it fills.

The analyses are pure functions of the model *structure*.  Models built by
the declarative layer carry a stable content hash (``net.spec_fingerprint``,
from :meth:`repro.describe.PipelineSpec.fingerprint`), which together with
:func:`structure_signature` keys :data:`SCHEDULE_CACHE`: rebuilding the same
spec re-uses the first build's analysis as a name-level
:class:`ScheduleBlueprint`, rehydrated against the new net's objects instead
of being re-derived.
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
    directly, the emitter as literal comparisons
    (:func:`repro.codegen.runtime.transition_capacity_shape`).
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


def structure_signature(net):
    """A cheap, hashable summary of everything the cached blueprints depend on.

    Covers stages (capacity/delay), places (stage binding), and transitions
    (endpoints, priority, reservation arcs, capacity stages) — the inputs of
    the schedule derivation and of the emitter's capacity-shape analysis.
    Guards and actions are deliberately excluded: the blueprints never
    encode behaviour, only structure.  Building the signature is O(model
    size), far cheaper than the analyses it keys.
    """
    stages = tuple(
        (stage.name, stage.capacity, stage.delay) for stage in net.stages.values()
    )
    places = tuple(
        (place.name, place.stage.name, place.delay) for place in net.places.values()
    )
    transitions = tuple(
        (
            transition.name,
            transition.source.name if transition.source is not None else None,
            transition.target.name if transition.target is not None else None,
            transition.priority,
            transition.consumes_token,
            tuple((arc.place.name, arc.count) for arc in transition.reservation_inputs),
            tuple((arc.place.name, arc.count) for arc in transition.reservation_outputs),
            tuple(stage.name for stage in transition.capacity_stages),
            transition.max_firings_per_cycle,
        )
        for transition in net.transitions
    )
    return (stages, places, transitions)


class ScheduleBlueprint:
    """A :class:`StaticSchedule` reduced to names (net-object free).

    Blueprints are what :data:`SCHEDULE_CACHE` stores: place/transition
    *names* instead of objects, so a blueprint derived from one build of a
    spec can be rehydrated against any later build of the same spec.
    """

    __slots__ = ("place_order", "feedback_places", "dispatch", "generators")

    def __init__(self, place_order, feedback_places, dispatch, generators):
        self.place_order = tuple(place_order)
        self.feedback_places = frozenset(feedback_places)
        #: ``(place_name, opclass) -> tuple of transition names``.
        self.dispatch = dispatch
        self.generators = tuple(generators)


class GenerationCache:
    """Fingerprint-keyed cache of generation-time blueprints, with counters.

    Holds the static-schedule blueprints (:data:`SCHEDULE_CACHE`), keyed by
    the spec content hash and the net's structure signature so only nets
    of identical structure share entries.  Entries are
    evicted least-recently-used beyond ``max_entries`` so design-space
    sweeps over thousands of spec variants cannot grow memory unboundedly.
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


#: Process-wide schedule cache keyed by (spec fingerprint, structure
#: signature).
SCHEDULE_CACHE = GenerationCache()


class StaticSchedule:
    """The result of the pre-simulation analysis, consumed by the engine.

    Every schedule carries both Section 4 optimisations: each place's
    ``dispatch`` table (the sorted transitions of Figure 6) and two-list
    storage on the feedback places, plus any place its model marked
    ``two_list=True``.  For nets elaborated from a spec
    (``net.spec_fingerprint`` set) the analysis is served from
    :data:`SCHEDULE_CACHE` when an identical spec was scheduled before;
    ``from_cache`` records which way this instance was built.
    """

    def __init__(self, net):
        self.net = net
        fingerprint = getattr(net, "spec_fingerprint", None)
        # The structure signature is part of the key, so a net mutated after
        # elaboration misses (and gets an entry of its own) instead of
        # replaying analysis of a structure it no longer has.
        key = (fingerprint, structure_signature(net)) if fingerprint is not None else None
        blueprint = SCHEDULE_CACHE.lookup(key) if key is not None else None
        self.from_cache = blueprint is not None
        if blueprint is not None:
            self._rehydrate(net, blueprint)
        else:
            self._derive(net)
            if key is not None:
                # Blueprints name transitions, so rehydration needs unique names.
                transition_names = [t.name for t in net.transitions]
                if len(set(transition_names)) == len(transition_names):
                    SCHEDULE_CACHE.store(key, self._to_blueprint())
        self.generator_transitions = (
            [self._transition_by_name[name] for name in blueprint.generators]
            if blueprint is not None
            else net.generator_transitions()
        )

    # -- fresh derivation ----------------------------------------------------
    def _derive(self, net):
        self.order = place_evaluation_order(net)
        feedback_places = mark_feedback_places(net, self.order)
        self.feedback_place_names = {p.name for p in feedback_places}
        self._install(net, calculate_sorted_transitions(net))

    def _install(self, net, sorted_transitions):
        """Mark the two-list places, give every place its dispatch table
        and every transition its :func:`capacity_plan`."""
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
        for transition in net.transitions:
            transition.capacity_plan = capacity_plan(transition)

    def _to_blueprint(self):
        return ScheduleBlueprint(
            place_order=(place.name for place in self.order),
            feedback_places=self.feedback_place_names,
            dispatch={
                key: tuple(t.name for t in transitions)
                for key, transitions in self.sorted_transitions.items()
            },
            generators=(t.name for t in self.net.generator_transitions()),
        )

    # -- rehydration from a cached blueprint ---------------------------------
    def _rehydrate(self, net, blueprint):
        by_name = {t.name: t for t in net.transitions}
        self._transition_by_name = by_name
        self.order = [net.places[name] for name in blueprint.place_order]
        self.feedback_place_names = set(blueprint.feedback_places)
        self._install(
            net,
            {
                key: tuple(by_name[name] for name in names)
                for key, names in blueprint.dispatch.items()
            },
        )

    def transitions_for(self, place, opclass):
        """Candidate transitions for an instruction token, in priority order."""
        return place.dispatch.get(opclass, ())
