"""Transitions: the work an instruction performs when changing state.

"A transition represents the functionality that must be executed when the
instruction changes its state (place). [...] A transition is enabled if its
guard condition is true and there are enough tokens of proper types on its
input arcs AND the pipeline stages of the output places have enough capacity
to accept new tokens." (paper Section 3)
"""

from __future__ import annotations

from repro.core.arc import InputArc, OutputArc, TokenKind


class Transition:
    """A guarded state change of an instruction token.

    Parameters
    ----------
    name:
        Display name (``D``, ``E``, ``We`` ... in the paper's figures).
    subnet:
        The sub-net the transition belongs to.
    source:
        The place the instruction token is consumed from, or ``None`` for
        generator transitions (the instruction-independent sub-net's fetch).
    target:
        The place the instruction token is deposited into; ``None`` routes
        the token to the entry place of the sub-net matching its operation
        class (only meaningful for generator transitions), and the string
        ``"consume"`` destroys the token.
    guard:
        ``guard(token, ctx) -> bool``; ``None`` means always true.  A guard
        must have no side effects and may see time only through a token's
        ``ready_cycle`` or ``ctx.cycle``: the generated engine skips idle
        cycles on that assumption, and ``ctx.stats.cycles`` is not a valid
        clock inside a guard (reading it does not stop the skip).
    action:
        ``action(token, ctx)``; executed when the transition fires.
    delay:
        Execution delay of the transition's functionality, added to the
        residence delay of the token in the target place.
    priority:
        Priority of the arc from ``source`` (lower values are tried first).
    consumes:
        Places a reservation token is consumed from when firing.
    produces:
        Places a reservation token is deposited into when firing.
    capacity_stages:
        Extra stages that must have free capacity for the transition to be
        enabled (used by generator transitions whose concrete target place
        is only known after decoding).
    max_firings_per_cycle:
        Upper bound on firings per cycle for generator transitions (1 models
        single-issue fetch; larger values model multi-issue fetch).
    """

    CONSUME = "consume"

    def __init__(
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
        self.name = name
        self.subnet = subnet
        self.guard = guard
        self.action = action
        self.delay = delay
        self.priority = priority
        self.max_firings_per_cycle = max_firings_per_cycle

        # ``source`` and ``target`` are plain attributes: the engines read
        # them on every firing, and nothing re-points an arc once built.
        self.source = source
        self.source_arc = None
        if source is not None:
            self.source_arc = InputArc(source, TokenKind.INSTRUCTION, priority=priority)

        self.target = None
        self.consumes_token = False
        if target == Transition.CONSUME:
            self.consumes_token = True
        elif target is not None:
            self.target = target

        self.reservation_inputs = [InputArc(p, TokenKind.RESERVATION) for p in consumes]
        self.reservation_outputs = [OutputArc(p, TokenKind.RESERVATION) for p in produces]
        self.capacity_stages = list(capacity_stages)
        #: ``((stage, max_occupancy), ...)``: the output-capacity part of
        #: the enable rule, set by the static schedule
        #: (:func:`repro.core.scheduler.capacity_plan`).
        self.capacity_plan = None

    # -- structural queries ----------------------------------------------
    @property
    def is_generator(self):
        """True for transitions of the instruction-independent sub-net that
        create instruction tokens rather than moving an existing one."""
        return self.source_arc is None

    def input_arcs(self):
        arcs = []
        if self.source_arc is not None:
            arcs.append(self.source_arc)
        arcs.extend(self.reservation_inputs)
        return arcs

    def output_arcs(self):
        arcs = []
        if self.target is not None:
            arcs.append(OutputArc(self.target, TokenKind.INSTRUCTION))
        elif self.is_generator and not self.consumes_token:
            arcs.append(OutputArc(None, TokenKind.INSTRUCTION))
        arcs.extend(self.reservation_outputs)
        return arcs

    def arc_count(self):
        return len(self.input_arcs()) + len(self.output_arcs())

    def __repr__(self):
        src = self.source.name if self.source is not None else "∅"
        if self.consumes_token:
            dst = "∅"
        elif self.target is not None:
            dst = self.target.name
        else:
            dst = "<routed>"
        return "<Transition %s: %s -> %s>" % (self.name, src, dst)
