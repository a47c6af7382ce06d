"""The RCPN model container.

An :class:`RCPN` holds the pipeline stages, sub-nets, places, transitions,
operation classes, register files and non-pipeline units of one processor
model.  Processor models (``repro.processors``) are builders that populate
an RCPN; the simulation engine (``repro.core.engine``) executes it.
"""

from __future__ import annotations

from repro.core.exceptions import ModelError
from repro.core.operands import RegisterFile
from repro.core.operation_class import OperationClass
from repro.core.place import Place
from repro.core.stage import END_STAGE_NAME, PipelineStage
from repro.core.subnet import SubNet
from repro.core.transition import Transition


class RCPN:
    """A Reduced Colored Petri Net processor model."""

    def __init__(self, name):
        self.name = name
        self.stages = {}
        self.places = {}
        self.subnets = {}
        self.transitions = []
        self.operation_classes = {}
        self.register_files = {}
        self.units = {}
        self._opclass_to_subnet = {}
        # Every model has the virtual final stage with unlimited capacity.
        self.add_stage(END_STAGE_NAME, capacity=None, delay=0)

    # -- structural construction -------------------------------------------
    def add_stage(self, name, capacity=1, delay=1):
        """Declare a pipeline stage (latch / reservation station / buffer)."""
        if name in self.stages:
            raise ModelError("duplicate stage name %r" % name)
        stage = PipelineStage(name, capacity=capacity, delay=delay)
        self.stages[name] = stage
        return stage

    def stage(self, name):
        try:
            return self.stages[name]
        except KeyError:
            raise ModelError("unknown stage %r" % name) from None

    @property
    def end_stage(self):
        return self.stages[END_STAGE_NAME]

    def add_subnet(self, name, opclasses=()):
        """Declare a sub-net handling the given operation classes."""
        if name in self.subnets:
            raise ModelError("duplicate sub-net name %r" % name)
        subnet = SubNet(name, opclasses=opclasses)
        self.subnets[name] = subnet
        for opclass in subnet.opclasses:
            if opclass in self._opclass_to_subnet:
                raise ModelError(
                    "operation class %r is already handled by sub-net %r"
                    % (opclass, self._opclass_to_subnet[opclass].name)
                )
            self._opclass_to_subnet[opclass] = subnet
        return subnet

    def add_place(self, stage, subnet, name=None, delay=None, two_list=False, entry=False):
        """Add a place assigned to ``stage`` inside ``subnet``.

        ``entry=True`` marks the place as the sub-net's entry place (where
        newly generated instruction tokens of its operation classes arrive).
        """
        stage = stage if isinstance(stage, PipelineStage) else self.stage(stage)
        subnet = subnet if isinstance(subnet, SubNet) else self.subnets[subnet]
        if name is None:
            name = "%s.%s" % (subnet.name, stage.name)
        if name in self.places:
            raise ModelError("duplicate place name %r" % name)
        place = Place(name, stage, subnet=subnet, delay=delay, two_list=two_list)
        self.places[name] = place
        subnet.add_place(place)
        if entry:
            if subnet.entry_place is not None:
                raise ModelError("sub-net %r already has an entry place" % subnet.name)
            subnet.entry_place = place
        return place

    def place(self, name):
        try:
            return self.places[name]
        except KeyError:
            raise ModelError("unknown place %r" % name) from None

    def add_transition(
        self,
        name,
        subnet,
        source=None,
        target=None,
        guard=None,
        action=None,
        delay=0,
        priority=0,
        consumes=(),
        produces=(),
        capacity_stages=(),
        max_firings_per_cycle=1,
    ):
        """Add a transition; see :class:`~repro.core.transition.Transition`.

        ``guard`` must be free of side effects and read time only through
        ``ready_cycle`` or ``ctx.cycle`` (never ``ctx.stats.cycles``), or
        the generated engine's idle-cycle skip changes the statistics.
        """
        subnet = subnet if isinstance(subnet, SubNet) else self.subnets[subnet]
        source = self._resolve_place(source)
        if target not in (None, Transition.CONSUME):
            target = self._resolve_place(target)
        consumes = [self._resolve_place(p) for p in consumes]
        produces = [self._resolve_place(p) for p in produces]
        capacity_stages = [
            s if isinstance(s, PipelineStage) else self.stage(s) for s in capacity_stages
        ]
        transition = Transition(
            name=name,
            subnet=subnet,
            source=source,
            target=target,
            guard=guard,
            action=action,
            delay=delay,
            priority=priority,
            consumes=consumes,
            produces=produces,
            capacity_stages=capacity_stages,
            max_firings_per_cycle=max_firings_per_cycle,
        )
        self.transitions.append(transition)
        subnet.add_transition(transition)
        return transition

    def _resolve_place(self, place):
        if place is None or isinstance(place, Place):
            return place
        return self.place(place)

    def add_operation_class(self, operation_class):
        """Register an :class:`OperationClass` (or build one from kwargs)."""
        if not isinstance(operation_class, OperationClass):
            raise ModelError("expected an OperationClass instance")
        if operation_class.name in self.operation_classes:
            raise ModelError("duplicate operation class %r" % operation_class.name)
        self.operation_classes[operation_class.name] = operation_class
        return operation_class

    def add_register_file(self, name, size, initial=0):
        if name in self.register_files:
            raise ModelError("duplicate register file %r" % name)
        regfile = RegisterFile(name, size, initial=initial)
        self.register_files[name] = regfile
        return regfile

    def add_unit(self, name, unit):
        """Attach a non-pipeline unit (memory system, predictor, core state)."""
        if name in self.units:
            raise ModelError("duplicate unit %r" % name)
        self.units[name] = unit
        return unit

    def unit(self, name):
        try:
            return self.units[name]
        except KeyError:
            raise ModelError("unknown unit %r" % name) from None

    # -- queries -------------------------------------------------------------
    def subnet_for(self, opclass):
        """The sub-net whose places an instruction token of ``opclass`` uses."""
        try:
            return self._opclass_to_subnet[opclass]
        except KeyError:
            raise ModelError("no sub-net handles operation class %r" % opclass) from None

    def entry_place_for(self, opclass):
        subnet = self.subnet_for(opclass)
        if subnet.entry_place is None:
            raise ModelError("sub-net %r has no entry place" % subnet.name)
        return subnet.entry_place

    def instruction_independent_subnets(self):
        return [s for s in self.subnets.values() if s.is_instruction_independent]

    def generator_transitions(self):
        return [t for t in self.transitions if t.is_generator]

    def places_of_stage(self, stage):
        stage = stage if isinstance(stage, PipelineStage) else self.stage(stage)
        return list(stage.places)

    def transitions_from(self, place):
        place = self._resolve_place(place)
        return [t for t in self.transitions if t.source is place]

    def complexity(self):
        """Structural size of the model (used by the Fig. 1/2 experiment)."""
        arcs = sum(t.arc_count() for t in self.transitions)
        return {
            "stages": len(self.stages),
            "places": len(self.places),
            "transitions": len(self.transitions),
            "arcs": arcs,
            "subnets": len(self.subnets),
            "operation_classes": len(self.operation_classes),
        }

    # -- validation ------------------------------------------------------------
    def validate(self):
        """Check structural consistency; raises :class:`ModelError` on problems."""
        problems = []
        if not any(s.is_instruction_independent for s in self.subnets.values()):
            problems.append("model has no instruction-independent sub-net")
        for opclass in self.operation_classes:
            if opclass not in self._opclass_to_subnet:
                problems.append("operation class %r is not handled by any sub-net" % opclass)
        for subnet in self.subnets.values():
            if not subnet.is_instruction_independent and subnet.entry_place is None:
                problems.append("sub-net %r has no entry place" % subnet.name)
        for transition in self.transitions:
            if transition.is_generator and transition.subnet.opclasses:
                problems.append(
                    "generator transition %r must belong to the instruction-independent sub-net"
                    % transition.name
                )
            if transition.guard is not None and not callable(transition.guard):
                problems.append("guard of transition %r is not callable" % transition.name)
            if transition.action is not None and not callable(transition.action):
                problems.append("action of transition %r is not callable" % transition.name)
            source = transition.source
            if source is not None and source.name not in self.places:
                problems.append("transition %r reads from unknown place %r" % (transition.name, source.name))
            target = transition.target
            if target is not None and target.name not in self.places:
                problems.append("transition %r writes to unknown place %r" % (transition.name, target.name))
        for place in self.places.values():
            if place.stage.name not in self.stages:
                problems.append("place %r uses unknown stage %r" % (place.name, place.stage.name))
        if problems:
            raise ModelError("invalid RCPN model %r:\n  - %s" % (self.name, "\n  - ".join(problems)))
        return True

    def reset(self):
        """Clear all dynamic state (tokens, stage occupancy, register writers).

        Units that are pure per-run bookkeeping (``clears_with_net = True``,
        e.g. the multi-issue :class:`~repro.describe.substrate.IssueControl`)
        are reset here too; memory images and learned predictor state are
        the :class:`~repro.describe.substrate.Processor` facade's business.
        """
        for place in self.places.values():
            place.tokens = []
            place.pending = []
        for stage in self.stages.values():
            stage.reset()
        for regfile in self.register_files.values():
            regfile.writers = [None] * regfile.size
        for unit in self.units.values():
            if getattr(unit, "clears_with_net", False):
                unit.reset()

    def __repr__(self):
        size = self.complexity()
        return "<RCPN %s: %d stages, %d places, %d transitions>" % (
            self.name,
            size["stages"],
            size["places"],
            size["transitions"],
        )
