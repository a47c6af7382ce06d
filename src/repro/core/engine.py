"""The RCPN cycle-accurate simulation engine.

This is the paper's Section 4 engine: per-(place, type) transition lists are
precomputed, places are evaluated in reverse topological order of the
instruction flow, and only feedback places pay for two-list (master/slave)
storage.  Every engine runs these optimisations; none has an off switch.

The interpreted engine runs a cycle in one frame: :meth:`SimulationEngine.step`
tests each candidate's enable rule and moves the token inline, reading the
static schedule (dispatch tables, capacity and issue plans), and visits no
end place.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.core.exceptions import CapacityError, SimulationError
from repro.core.scheduler import StaticSchedule
from repro.core.statistics import SimulationStatistics
from repro.core.token import ReservationToken
from repro.observe.trace import TraceConfig, build_tracer


#: Valid values of :attr:`EngineOptions.backend`.
ENGINE_BACKENDS = ("interpreted", "generated")

#: Backends that no longer exist, with the message that replaces them.
_REMOVED_BACKENDS = {
    "compiled": "the compiled backend was removed; use 'generated' (same statistics, faster)",
    "batched": "the batched backend was removed; use 'generated' (same statistics, same speed)",
}


@dataclass
class EngineOptions:
    """Knobs of the simulation engine.

    ``backend`` selects the execution strategy (validated on construction
    and on ``dataclasses.replace``):

    * ``"interpreted"`` — :class:`SimulationEngine` evaluates the
      enable/fire rules each cycle against the static schedule (dispatch
      tables, capacity plans), one cycle at a time.  This is the
      reference implementation.
    * ``"generated"`` — :class:`repro.codegen.GeneratedEngine` emits the
      model as real Python source (a ``run_cycles`` loop around one
      straight-line cycle body with dispatch tables and capacity checks
      inlined as code), ``exec``s it and memoises the module in-process
      under the net's structure digest, so nets of one structure share
      it (the paper's simulator generation).
      Statistics are bit-identical to the interpreted backend; only
      wall-clock throughput differs.

    ``max_cycles`` and ``stall_limit`` apply to both backends (they shape
    the shared run loop); ``stall_limit`` aborts runs in which nothing
    fires for that many consecutive cycles (a modeling bug, reported as a
    deadlock).  The Section 4 optimisations (sorted transition dispatch,
    reverse-topological evaluation with two-list storage on feedback
    places, the decode cache) have no switch: every engine runs them.  A
    model asks for two-list storage on a further place with the place's
    own ``two_list`` flag.

    ``trace`` attaches a cycle-level event tracer
    (:class:`repro.observe.trace.TraceConfig`, or an equivalent dict from a
    JSON round-trip; ``None`` means no tracing).  Tracing observes but never
    perturbs a run: statistics stay bit-identical with tracing on or off,
    on every backend.  The trace config is a host-side observation knob,
    excluded from campaign run fingerprints; it enters
    the codegen cache key only when an emission-relevant category is
    enabled (see :func:`repro.codegen.cache.emit_trace_categories`).
    """

    max_cycles: int = 10_000_000
    stall_limit: int = 100_000
    backend: str = "interpreted"
    trace: object = None

    def __post_init__(self):
        if self.backend not in ENGINE_BACKENDS:
            if self.backend in _REMOVED_BACKENDS:
                raise ValueError(_REMOVED_BACKENDS[self.backend])
            import difflib

            close = difflib.get_close_matches(str(self.backend), ENGINE_BACKENDS, n=1)
            raise ValueError(
                "unknown engine backend %r; expected one of %s%s"
                % (
                    self.backend,
                    ", ".join(ENGINE_BACKENDS),
                    "; did you mean %r?" % close[0] if close else "",
                )
            )
        if isinstance(self.trace, dict):
            # Campaign specs JSON-round-trip engine options through
            # dataclasses.asdict; rebuild the nested config.
            self.trace = TraceConfig(**self.trace)


class EngineContext:
    """The object guards and actions receive as ``ctx``.

    It exposes the simulation cycle, the model's non-pipeline units, and the
    engine services a transition may need: emitting new instruction tokens
    (micro-operations), flushing stages on a misprediction, and requesting
    the end of simulation.

    Guards must only read through it: no side effects, and time only via
    :attr:`cycle` (see :attr:`stats`).
    """

    def __init__(self, engine):
        self._engine = engine
        self.net = engine.net
        self.units = engine.net.units

    @property
    def cycle(self):
        """The current simulation cycle.

        Reading it stamps the engine with the cycle it was read in: a guard
        that looks at the clock may change its answer from one idle cycle
        to the next, so the generated engine never fast-forwards over an
        idle cycle that read it (see :meth:`SimulationEngine._fast_forward`).
        """
        engine = self._engine
        cycle = engine._cycle_read_at = engine.cycle
        return cycle

    @property
    def stats(self):
        """The engine's statistics.

        The counters are exact between the engine's stretches of cycles and
        whenever a hook that may read them runs.  The generated engine keeps
        them — and the counters of its spliced fetch: main-memory reads,
        decode-cache hits, L1I accesses and hits, BTB lookups and hits — in
        locals of its cycle loop and adds them in at the end of a stretch,
        and before each call to a hook that is not a template or whose
        template source names ``stats`` or one of those counters; a hook
        reaching the statistics by another path (``engine.stats``, a saved
        reference) may see them short mid-stretch.

        ``stats.cycles`` is not a clock for guards: reading it does not mark
        the step, so the generated engine may skip the idle cycles such a
        guard is waiting on.  Use :attr:`cycle`.
        """
        return self._engine.stats

    def unit(self, name):
        return self.net.unit(name)

    def emit(self, token, place=None):
        """Send a newly created instruction token into the pipeline.

        Without ``place`` the token is routed to the entry place of the
        sub-net handling its operation class (the paper's "any sub-net can
        generate an instruction token and send it to its corresponding
        sub-net").  ``place`` may be a :class:`~repro.core.place.Place` or
        a place name.
        """
        self._engine.queue_emission(token, place)

    def flush_place(self, place):
        """Remove every token from ``place``, releasing their reservations."""
        return self._engine.flush_place(place)

    def flush_stage(self, stage):
        """Flush every place assigned to ``stage`` (wrong-path squash)."""
        return self._engine.flush_stage(stage)

    def flush_younger(self, seq):
        """Squash every in-flight instruction fetched after sequence ``seq``.

        Program-order squash for redirects in multi-issue models, where a
        wrong-path instruction may share a stage with the redirecting one
        and stage-granular flushes would be either too wide or too narrow.
        """
        return self._engine.flush_younger(seq)

    def stop(self, reason="halt"):
        """Request the end of simulation once the pipeline drains."""
        self._engine.request_halt(reason)


class SimulationEngine:
    """Cycle-accurate simulator executing one RCPN model (interpreted backend).

    This engine evaluates the generic enable/fire rules against the static
    schedule every cycle, in one frame per cycle (:meth:`step`), and is the
    oracle the generated backend is checked against: it allocates every
    token fresh and keeps every check (a full stage raises
    :class:`~repro.core.exceptions.CapacityError`, a stage's occupancy may
    not go negative, a token must be in the place it leaves).  A deadlock
    report names, for each resident token, the enable conjunct that blocks
    it (:meth:`blocked_by`).  The generated backend
    (:class:`repro.codegen.GeneratedEngine`) subclasses it, overriding only
    the per-cycle hot path (``_advance``/``step`` and the idle
    fast-forward); the run loop, halt/drain logic and the
    :class:`EngineContext` services are shared, which is what keeps the
    backends drop-in interchangeable.
    Anything observable — every counter of
    :class:`~repro.core.statistics.SimulationStatistics` — must be identical
    between backends; the differential tests enforce this.
    """

    #: Name of the execution strategy, for reports and benchmarks.
    backend = "interpreted"

    def __init__(self, net, options=None):
        net.validate()
        self.net = net
        self.options = options or EngineOptions()
        self.schedule = StaticSchedule(net)
        # Tokens never reside in an end place (_deposit retires them).
        self._visit_order = tuple(place for place in self.schedule.order if not place.is_end)
        #: The multi-issue arbiter the issue plans' gates count in.
        self._issue_control = net.units.get("issue_control")
        self.stats = SimulationStatistics()
        self.ctx = EngineContext(self)
        self.cycle = 0
        self.halt_requested = False
        self.halt_reason = ""
        self._emission_queue = []
        self._fired_this_cycle = 0
        self._idle_cycles = 0
        # The cycle in which ``ctx.cycle`` was last read (-1: never).
        self._cycle_read_at = -1
        self.tracer = build_tracer(self.options.trace, engine=self)
        self._bind_trace_hooks()

    def _bind_trace_hooks(self):
        """Cache per-category tracer methods (``None`` = category off).

        The hot-path sites guard with ``if self._trace_x is not None`` so a
        tracing-off run pays one attribute load per site at most.
        """
        tracer = self.tracer
        self._trace_firing = tracer.firing if tracer is not None and tracer.wants("firing") else None
        self._trace_stall = tracer.stall if tracer is not None and tracer.wants("stall") else None
        self._trace_squash = tracer.squash if tracer is not None and tracer.wants("squash") else None
        self._trace_token = tracer.token_created if tracer is not None and tracer.wants("token") else None
        if tracer is not None and tracer.wants("cache"):
            for unit in self.net.units.values():
                attach = getattr(unit, "attach_trace", None)
                if callable(attach):
                    attach(tracer.cache)

    # -- services used by EngineContext -------------------------------------
    def queue_emission(self, token, place=None):
        if place is not None:
            place = self.net._resolve_place(place)
        self._emission_queue.append((token, place))
        if self._trace_token is not None:
            self._trace_token(self.cycle, token, place)

    def flush_place(self, place, cause=None):
        place = self.net._resolve_place(place)
        removed = place.clear()
        squashed = 0
        trace_squash = self._trace_squash
        for token in removed:
            if token.is_instruction:
                token.squashed = True
                token.release_reservations()
                squashed += 1
                if trace_squash is not None:
                    trace_squash(self.cycle, cause or place.name, token)
        self.stats.squashed += squashed
        return squashed

    def flush_stage(self, stage):
        stage = stage if hasattr(stage, "places") else self.net.stage(stage)
        squashed = 0
        for place in stage.places:
            # An empty place has nothing to squash (most of a front-end
            # flush's places are empty).
            if place.tokens or place.pending:
                squashed += self.flush_place(place, cause=stage.name)
        return squashed

    def flush_younger(self, seq):
        """Squash every in-flight instruction token with ``token.seq > seq``.

        Token sequence numbers are assigned at creation, which for
        instruction tokens is fetch order; squashing by sequence therefore
        removes exactly the wrong-path (younger) instructions no matter
        which stages they reached.  Reservation tokens *deposited by* a
        squashed instruction (``producer_seq``) are withdrawn with it — a
        wrong-path taken branch must not leave its fetch-stall reservation
        behind, or fetch would stay disabled forever.  Redirects are rare,
        so the full place walk stays off the per-cycle hot path of both
        backends, and it passes over the empty places.
        """
        squashed = 0
        trace_squash = self._trace_squash
        for place in self.net.places.values():
            if place.is_end or not (place.tokens or place.pending):
                continue
            for token in place.tokens + place.pending:
                if token.is_instruction:
                    if token.seq > seq:
                        place.remove(token)
                        token.squashed = True
                        token.release_reservations()
                        squashed += 1
                        if trace_squash is not None:
                            trace_squash(self.cycle, "younger>%d" % seq, token)
                else:
                    producer = getattr(token, "producer_seq", None)
                    if producer is not None and producer > seq:
                        place.remove(token)
        self.stats.squashed += squashed
        return squashed

    def request_halt(self, reason="halt"):
        self.halt_requested = True
        self.halt_reason = reason

    # -- enable / fire rules ---------------------------------------------------
    def blocked_by(self, transition, token):
        """The first conjunct of the paper's enable rule that fails, or ``None``.

        The conjuncts, in the order :meth:`step` tests them inline and the
        emitter writes them: every reservation input holds a reservation
        token, every ``(stage, max_occupancy)`` pair of the transition's
        static :func:`~repro.core.scheduler.capacity_plan` holds, its
        :func:`~repro.core.scheduler.issue_plan` gate is open (the
        :class:`~repro.describe.substrate.IssueControl` rules), and the
        guard is true.  A failure is ``("reservation", place)``,
        ``("capacity", stage, max_occupancy)``, ``("issue", transition,
        "width" | "port" | "order")``, ``("advance", stage)`` or
        ``("guard", transition)``.  The generator transitions are tested
        here, and the deadlock report names what blocks each resident
        token with it.
        """
        for arc in transition.reservation_inputs:
            if not arc.place.has_reservation():
                return ("reservation", arc.place)
        for stage, max_occupancy in transition.capacity_plan:
            if stage._occupancy > max_occupancy:
                return ("capacity", stage, max_occupancy)
        gate = transition.issue_plan
        if gate is not None:
            control = self._issue_control
            if gate[0] == "advance":
                if not control.may_advance(token, gate[1]):
                    return gate
            elif control._issued >= gate[2]:
                return ("issue", transition, "width")
            elif gate[1] is not None and control._port_issued[gate[1]] >= gate[3]:
                return ("issue", transition, "port")
            elif not control.may_issue(token, self.ctx):
                return ("issue", transition, "order")
        guard = transition.guard
        if guard is not None and not guard(token, self.ctx):
            return ("guard", transition)
        return None

    def _fire_generator(self, transition):
        """Fire an enabled generator transition.

        No instruction token moves: the action creates tokens with
        ``ctx.emit``, delivered with the transition's delay.  :meth:`step`
        fires the transitions that move a token inline.
        """
        self.stats.transition_firings[transition.name] += 1
        self._fired_this_cycle += 1
        if self._trace_firing is not None:
            self._trace_firing(self.cycle, transition.name, None)
        for arc in transition.reservation_inputs:
            arc.place.take_reservation()
        if transition.action is not None:
            transition.action(None, self.ctx)
        for arc in transition.reservation_outputs:
            self._deposit(ReservationToken(), arc.place, transition.delay)
        # deliver_emissions, with _deposit and Place.deposit inline.
        emissions, self._emission_queue = self._emission_queue, []
        for token, place in emissions:
            place = place if place is not None else self.net.entry_place_for(token.opclass)
            self.stats.generated_tokens += 1
            stage = place.stage
            if place.is_end:
                self._retire(token)
            elif stage.capacity is not None and stage._occupancy >= stage.capacity:
                raise CapacityError("stage %r has no room for a token entering place %r" % (stage.name, place.name))
            else:
                residence, token.delay_override = token.delay_override, None
                token.ready_cycle = self.cycle + transition.delay + (place.delay if residence is None else residence)
                token.place = place
                stage._occupancy += 1
                (place.pending if place.two_list else place.tokens).append(token)

    def deliver_emissions(self, transition_delay):
        """Deposit the tokens queued by ``ctx.emit`` during one fire.

        Each goes to its given place, else to the entry place of its
        operation class, with the firing transition's delay.  The generated
        engine calls this after every fire whose hooks may emit and are not
        spliced (the spliced fetch delivers its own token).
        """
        emissions, self._emission_queue = self._emission_queue, []
        for new_token, place in emissions:
            destination = place if place is not None else self.net.entry_place_for(new_token.opclass)
            self.stats.generated_tokens += 1
            self._deposit(new_token, destination, transition_delay)

    def _deposit(self, token, place, transition_delay):
        if place.is_end:
            self._retire(token)
            return
        residence_delay = token.delay_override if token.delay_override is not None else place.delay
        token.delay_override = None
        place.deposit(token, self.cycle + transition_delay + residence_delay)

    def _retire(self, token):
        if token.is_instruction:
            self.stats.instructions += 1
            self.stats.retired_by_class[token.opclass] += 1
            token.place = None

    # -- main loop ----------------------------------------------------------------
    def step(self):
        """Simulate one clock cycle (the body of the paper's Figure 8 loop).

        One frame runs the cycle.  It commits the two-list places, then
        visits the places of ``schedule.order`` that are not end places (a
        token entering an end place retires, so none resides there) and
        skips the empty ones.  A visit takes a snapshot of the place's
        tokens: a token deposited there during the visit waits for the next
        cycle, and one that an earlier firing moved away is passed over.
        For each ready instruction token it tests the enable rule of each
        candidate transition inline, in :meth:`blocked_by`'s order, and
        fires the first enabled one, booking an issue in the arbiter,
        whose counts it zeroes first; a token with none stalls.  The
        generator transitions come last.
        """
        self._fired_this_cycle = 0
        for place in self.schedule.two_list_places:
            if place.pending:
                place.commit_pending()
        control = self._issue_control
        if control is not None and control._issued:
            control.new_cycle()
        cycle = self.cycle
        ctx = self.ctx
        stats = self.stats
        firings = stats.transition_firings
        trace_firing = self._trace_firing
        trace_stall = self._trace_stall
        fired = 0
        for place in self._visit_order:
            tokens = place.tokens
            if not tokens:
                continue
            dispatch = place.dispatch
            for token in tokens[:]:
                if token.place is not place or not token.is_instruction or token.ready_cycle > cycle:
                    continue
                # The first candidate whose enable rule holds: a ``break``
                # out of a conjunct's loop or a ``continue`` is a failed
                # conjunct, the ``break`` after the guard ends the search.
                for transition in dispatch.get(token.opclass, ()):
                    for arc in transition.reservation_inputs:
                        if not arc.place.has_reservation():
                            break
                    else:
                        for stage, max_occupancy in transition.capacity_plan:
                            if stage._occupancy > max_occupancy:
                                break
                        else:
                            gate = transition.issue_plan
                            if gate is None:
                                pass
                            elif gate[0] == "issue":
                                if control._issued >= gate[2] or (
                                    gate[1] is not None and control._port_issued[gate[1]] >= gate[3]
                                ):
                                    continue
                                prev = token.prev
                                if not (prev is None or "issued" in prev.annotations
                                        or prev.squashed or prev.seq >= token.seq):
                                    continue
                            elif gate[1]._occupancy > 1:
                                prev = token.prev
                                if (prev is not None and prev.seq < token.seq
                                        and prev.place is not None and prev.place.stage is gate[1]):
                                    continue
                            guard = transition.guard
                            if guard is None or guard(token, ctx):
                                break
                else:
                    stats.stalls += 1
                    if trace_stall is not None:
                        trace_stall(cycle, place.name, token)
                    continue

                # Fire it: the token leaves with one scan of the list that
                # holds it, and enters a target that is not an end place
                # inline, with Place.remove's and Place.deposit's checks.
                firings[transition.name] += 1
                fired += 1
                if trace_firing is not None:
                    trace_firing(cycle, transition.name, token)
                try:
                    tokens.remove(token)
                except ValueError:
                    place.remove(token)  # a pending token, else ValueError
                else:
                    token.place = None
                    stage = place.stage
                    stage._occupancy -= 1
                    if stage._occupancy < 0:
                        raise RuntimeError("stage %r occupancy went negative" % stage.name)
                for arc in transition.reservation_inputs:
                    arc.place.take_reservation()
                gate = transition.issue_plan
                if gate is not None and gate[0] == "issue":
                    control._issued += 1
                    if gate[1] is not None:
                        control._port_issued[gate[1]] += 1
                    token.annotations["issued"] = True
                    token.prev = None
                action = transition.action
                if action is not None:
                    action(token, ctx)
                target = transition.target
                if target is not None and not transition.consumes_token:
                    if target.is_end:
                        self._retire(token)
                    else:
                        residence = token.delay_override
                        if residence is None:
                            residence = target.delay
                        else:
                            token.delay_override = None
                        stage = target.stage
                        capacity = stage.capacity
                        if capacity is not None and stage._occupancy >= capacity:
                            raise CapacityError(
                                "stage %r has no room for a token entering place %r"
                                % (stage.name, target.name)
                            )
                        token.ready_cycle = cycle + transition.delay + residence
                        token.place = target
                        stage._occupancy += 1
                        if target.two_list:
                            target.pending.append(token)
                        else:
                            target.tokens.append(token)
                for arc in transition.reservation_outputs:
                    self._deposit(ReservationToken(producer_seq=token.seq), arc.place, transition.delay)
                if self._emission_queue:
                    self.deliver_emissions(transition.delay)
        self._fired_this_cycle += fired
        for transition in self.schedule.generator_transitions:
            count = 0
            while count < transition.max_firings_per_cycle and self.blocked_by(transition, None) is None:
                self._fire_generator(transition)
                count += 1
        self.cycle = stats.cycles = cycle + 1

        if self._fired_this_cycle == 0:
            self._idle_cycles += 1
        else:
            self._idle_cycles = 0

    def pipeline_empty(self):
        """True when no token resides in any non-end place."""
        return all(place.occupancy() == 0 for place in self.net.places.values())

    def finished(self):
        if self.halt_requested and self.pipeline_empty():
            return True
        return False

    def run(self, max_cycles=None, max_instructions=None):
        """Run until the model requests a halt and drains, or a limit is hit.

        Every check — finished, cycle limit, ``max_instructions``, the
        ``stall_limit`` deadlock error, then the idle fast-forward — runs
        between calls to :meth:`_advance`, which may simulate a stretch of
        cycles but returns whenever one of those checks could change its
        answer.  With ``max_instructions`` set, each call is held to one
        cycle, since any firing may retire an instruction.
        """
        limit = max_cycles if max_cycles is not None else self.options.max_cycles
        start = time.perf_counter()
        while True:
            if self.finished():
                self.stats.finished = True
                self.stats.finish_reason = self.halt_reason or "halt"
                break
            if self.cycle >= limit:
                self.stats.finish_reason = "max_cycles"
                break
            if max_instructions is not None and self.stats.instructions >= max_instructions:
                self.stats.finish_reason = "max_instructions"
                break
            if self._idle_cycles >= self.options.stall_limit:
                raise SimulationError(
                    "no transition fired for %d consecutive cycles at cycle %d; "
                    "the model is deadlocked; %s"
                    % (self._idle_cycles, self.cycle, self._resident_tokens_report())
                )
            self._advance(limit if max_instructions is None else self.cycle + 1)
            if self._fired_this_cycle == 0:
                self._fast_forward(limit)
        self.stats.wall_time_seconds += time.perf_counter() - start
        return self.stats

    def _advance(self, limit):
        """Simulate from the current cycle towards cycle ``limit``.

        The contract :meth:`run` relies on: simulate at least one cycle,
        and return no later than the first cycle in which nothing fired,
        the cycle that reaches ``limit``, or the cycle in which a halt is
        requested, leaving ``_fired_this_cycle`` at the last cycle's firing
        count.  The interpreted engine is the cycle-by-cycle oracle and
        steps exactly once; :class:`repro.codegen.GeneratedEngine` runs
        the stretch in its emitted loop.
        """
        self.step()

    def _fast_forward(self, limit):
        """Hook called by :meth:`run` after a cycle in which nothing fired.

        An engine may advance straight to the next cycle that can differ
        from the idle one, provided every statistic and every limit check
        comes out exactly as if it had stepped cycle by cycle.  The
        interpreted engine is the cycle-by-cycle oracle, so it does nothing
        here; :class:`repro.codegen.GeneratedEngine` skips.
        """

    def _resident_tokens_report(self, limit=8):
        """Name the instruction tokens still in the pipeline (deadlock message).

        Each is named with the first conjunct of the enable rule (see
        :meth:`blocked_by`) that its first candidate transition fails.
        """
        resident = [
            "%s pc=%#x opclass=%s seq=%d ready_cycle=%d%s"
            % (place.name, token.pc, token.opclass, token.seq, token.ready_cycle,
               self._blocking_note(place, token))
            for place in self.net.places.values()
            for token in place.tokens + place.pending
            if token.is_instruction
        ]
        if not resident:
            return "no instruction token is resident"
        more = len(resident) - limit
        return "resident instruction tokens: %s%s" % (
            ", ".join(resident[:limit]),
            " (+%d more)" % more if more > 0 else "",
        )

    def _blocking_note(self, place, token):
        """`` blocked by <conjunct>`` for ``token``'s first candidate transition."""
        candidates = place.dispatch.get(token.opclass, ())
        if not candidates:
            return " (no candidate transition)"
        blocked = self.blocked_by(candidates[0], token)
        if blocked is None:
            return ""
        what = blocked[1].name
        if blocked[0] == "capacity":
            what += " (occupancy %d > max %d)" % (blocked[1]._occupancy, blocked[2])
        elif blocked[0] == "issue":
            what += " (%s)" % blocked[2]
        return " blocked by %s %s" % (blocked[0], what)

    def reset(self):
        """Reset dynamic simulation state, keeping the static schedule."""
        self.net.reset()
        self.stats = SimulationStatistics()
        self.cycle = 0
        self.halt_requested = False
        self.halt_reason = ""
        self._emission_queue = []
        self._fired_this_cycle = 0
        self._idle_cycles = 0
        self._cycle_read_at = -1
        if self.tracer is not None:
            self.tracer.clear()
            # net.reset() may have rebuilt unit internals (e.g. the memory
            # hierarchy's cache objects); re-attach the cache hook.
            self._bind_trace_hooks()
