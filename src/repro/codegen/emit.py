"""Source-level simulator generation: emit one RCPN model as Python code.

This module performs the last step of the paper's generation idea and
emits real Python **source**: one ``run_cycles(limit)`` function per model
whose cycle loop holds a single straight-line copy of the per-cycle body,
in which every static decision is already text —

* the static schedule's dispatch tables appear as ``if/elif`` chains on
  the token's operation class, one inlined attempt per candidate
  transition in arc-priority order;
* capacity checks are literal integer comparisons against the stage
  capacities (``s3._occupancy < 2``), or absent entirely when the
  emit-time shape analysis (:func:`repro.codegen.runtime.
  transition_capacity_shape`) proves the transition capacity-free;
* token movement is flattened to direct field operations on the
  preallocated place/stage objects (list ``append``/``remove``,
  ``_occupancy`` adjustments) instead of ``Place.deposit``/``remove``
  calls, with residence delays folded into literals;
* issue/port budgets are specialised away: the multi-issue gate wrappers
  are unwrapped at emit time into direct arbiter calls with the port as a
  source literal (see :func:`repro.codegen.runtime.guard_plan`);
* guard-free transitions fire with no call at all;
* instruction tokens emitted by actions (fetch) are delivered by the
  module's ``drain`` closure as field operations, through an
  opclass → entry-place dict built once per binding.

``run_cycles(limit)`` also owns the per-cycle bookkeeping: it advances
``engine.cycle`` and ``stats.cycles`` every cycle and returns after the
first idle cycle (noting ``engine._idle_stalls`` for the idle
fast-forward), when ``limit`` is reached, or once a halt is requested —
exactly the points at which ``SimulationEngine.run``'s checks can change
their answer, so a whole busy stretch costs one call from the run loop.

The emitted module is net-object free — ``make_run_cycles(rt)`` binds the
live places/stages/guards by index (:func:`repro.codegen.runtime.
build_runtime`) — so one emitted module is reusable for every rebuild of
the same spec within a process, memoised under the spec fingerprint and
the structure digest (:mod:`repro.codegen.cache`).

Observable behaviour is contractually bit-identical to the interpreted
engine: same statistics counters, same attempt order, same stall
accounting, same emission-drain timing.  The backend-equivalence matrix
(``tests/integration/test_backend_equivalence.py``) enforces this for
every registered model and kernel.

Tracing (:mod:`repro.observe`) is a *traced emission mode*, not a run-time
branch: when an emission-relevant trace category is enabled
(:func:`repro.codegen.cache.emit_trace_categories`) the emitter inlines
``TRF``/``TRS`` calls at exactly the interpreted engine's event sites and
the memo key gains a ``trace=`` part; with tracing off the emitted source
is byte-identical to a trace-unaware build and the key is unchanged, so
the fast path is untouched.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.codegen.cache import emit_trace_categories
from repro.codegen.runtime import (
    action_plan,
    guard_plan,
    structure_digest,
    transition_capacity_shape,
)


@dataclass
class EmitReport:
    """Specialisation statistics of one emission."""

    transitions_emitted: int = 0
    guard_free_transitions: int = 0
    capacity_free_transitions: int = 0
    single_stage_capacity_transitions: int = 0
    issue_gated_transitions: int = 0
    advance_gated_transitions: int = 0
    dispatch_entries: int = 0
    nonempty_dispatch_entries: int = 0
    places_emitted: int = 0
    single_token_places: int = 0
    source_lines: int = 0

    def summary(self):
        return {
            "transitions_compiled": self.transitions_emitted,
            "guard_free_transitions": self.guard_free_transitions,
            "capacity_free_transitions": self.capacity_free_transitions,
            "single_stage_capacity_transitions": self.single_stage_capacity_transitions,
            "issue_gated_transitions": self.issue_gated_transitions,
            "advance_gated_transitions": self.advance_gated_transitions,
            "dispatch_entries": self.dispatch_entries,
            "nonempty_dispatch_entries": self.nonempty_dispatch_entries,
            "places_compiled": self.places_emitted,
            "single_token_places": self.single_token_places,
            "source_lines": self.source_lines,
        }


class _Writer:
    def __init__(self):
        self.lines = []

    def w(self, indent, text=""):
        self.lines.append("    " * indent + text if text else "")

    def source(self):
        return "\n".join(self.lines) + "\n"


def _capacity_conjuncts(net, shape, stage_var):
    """Render one capacity shape as literal-comparison conjunct strings."""
    conjuncts = []
    if shape[0] == "single":
        stage = net.stages[shape[1]]
        conjuncts.append("%s._occupancy < %d" % (stage_var(stage), stage.capacity))
    elif shape[0] == "multi":
        for stage_name, count in shape[1]:
            stage = net.stages[stage_name]
            if stage.capacity is None or count <= 0:
                continue  # unlimited, or the departing token frees the slot
            conjuncts.append(
                "%s._occupancy <= %d" % (stage_var(stage), stage.capacity - count)
            )
        for stage_name in shape[2]:
            stage = net.stages[stage_name]
            if stage.capacity is None:
                continue
            conjuncts.append("%s._occupancy < %d" % (stage_var(stage), stage.capacity))
    return conjuncts


def emit_module_source(net, schedule, options, key=None):
    """Emit the Python source of one model's generated simulator.

    Returns ``(source, report)``.  The source defines
    ``make_run_cycles(rt)`` returning ``run_cycles(limit) -> fired``, which
    simulates cycles until the first idle one, ``limit`` or a halt request
    and returns the last cycle's firing count; ``rt`` is the binding dict of
    :func:`repro.codegen.runtime.build_runtime`.
    """
    trace_categories = emit_trace_categories(options)
    traced_firing = "firing" in trace_categories
    traced_stall = "stall" in trace_categories

    report = EmitReport()
    places = list(schedule.order)
    stages = list(net.stages.values())
    transitions = list(net.transitions)
    place_index = {id(place): index for index, place in enumerate(places)}
    stage_index = {id(stage): index for index, stage in enumerate(stages)}
    transition_index = {id(t): index for index, t in enumerate(transitions)}

    def pvar(place):
        return "p%d" % place_index[id(place)]

    def svar(stage):
        return "s%d" % stage_index[id(stage)]

    #: Places that can ever hold a reservation token: only reservation
    #: output arcs deposit them, so this set is exact and lets the ready
    #: filter of every other place drop the ``is_instruction`` test.
    reservation_places = set()
    for transition in transitions:
        for arc in transition.reservation_outputs:
            if arc.place is not None:
                reservation_places.add(id(arc.place))

    emitted_transitions = set()
    used_stages = set()
    used_guards = set()
    used_actions = set()
    used_controls = set()
    need_pool = False
    need_res = False
    need_rbc = False

    def classify(transition):
        index = transition_index[id(transition)]
        if index not in emitted_transitions:
            emitted_transitions.add(index)
            report.transitions_emitted += 1
            gkind = guard_plan(transition)[0]
            if gkind == "none":
                report.guard_free_transitions += 1
            elif gkind == "issue":
                report.issue_gated_transitions += 1
            elif gkind == "advance":
                report.advance_gated_transitions += 1
            shape = transition_capacity_shape(transition)
            if shape[0] == "free":
                report.capacity_free_transitions += 1
            elif shape[0] == "single":
                report.single_stage_capacity_transitions += 1

    def enable_conjuncts(transition, token_expr):
        """The enable rule as an ordered list of conjunct expressions.

        Order matters and mirrors ``SimulationEngine.is_enabled``:
        reservation inputs, then output capacity, then the guard.
        """
        index = transition_index[id(transition)]
        conjuncts = []
        for arc in transition.reservation_inputs:
            conjuncts.append("%s.has_reservation()" % pvar(arc.place))
        shape = transition_capacity_shape(transition)

        def stage_var(stage):
            used_stages.add(id(stage))
            return svar(stage)

        conjuncts.extend(_capacity_conjuncts(net, shape, stage_var))
        gkind, gbase, _gcontrol, gport, gstage = guard_plan(transition)
        if gkind == "plain":
            used_guards.add(index)
            conjuncts.append("g%d(%s, ctx)" % (index, token_expr))
        elif gkind == "issue":
            used_controls.add(index)
            conjuncts.append("c%d.may_issue(%s, ctx, %r)" % (index, token_expr, gport))
            if gbase is not None:
                used_guards.add(index)
                conjuncts.append("g%d(%s, ctx)" % (index, token_expr))
        elif gkind == "advance":
            used_controls.add(index)
            used_stages.add(id(gstage))
            conjuncts.append("c%d.may_advance(%s, %s)" % (index, token_expr, svar(gstage)))
            if gbase is not None:
                used_guards.add(index)
                conjuncts.append("g%d(%s, ctx)" % (index, token_expr))
        return conjuncts

    def fire_lines(transition, token_mode):
        """The fire rule, flattened to field operations.

        Mirrors ``SimulationEngine.fire`` step for step: firing counter,
        source removal, reservation-input consumption, action, token
        deposit (or retire), reservation-output deposits, emission drain.
        """
        nonlocal need_pool, need_res, need_rbc
        index = transition_index[id(transition)]
        lines = ["tf[%r] += 1" % transition.name]
        if traced_firing:
            lines.append(
                "TRF(cycle, %r, %s)" % (transition.name, "token" if token_mode else "None")
            )

        if token_mode:
            source = transition.source
            used_stages.add(id(source.stage))
            lines.append("%s.tokens.remove(token)" % pvar(source))
            lines.append("token.place = None")
            lines.append("%s._occupancy -= 1" % svar(source.stage))

        for arc in transition.reservation_inputs:
            need_pool = True
            lines.append("pool.append(%s.take_reservation())" % pvar(arc.place))

        akind, abase, _acontrol, aport = action_plan(transition)
        token_expr = "token" if token_mode else "None"
        if akind == "issue":
            used_controls.add(index)
            lines.append("c%d.note_issue(%s, ctx, %r)" % (index, token_expr, aport))
            if abase is not None:
                used_actions.add(index)
                lines.append("a%d(%s, ctx)" % (index, token_expr))
        elif akind == "plain":
            used_actions.add(index)
            lines.append("a%d(%s, ctx)" % (index, token_expr))

        target = transition.target_place
        if token_mode and not transition.consumes_token and target is not None:
            if target.is_end:
                need_rbc = True
                lines.append("stats.instructions += 1")
                lines.append("rbc[token.opclass] += 1")
                lines.append("token.place = None")
            else:
                total = transition.delay + target.delay
                lines.append("_d = token.delay_override")
                lines.append("if _d is None:")
                lines.append("    token.ready_cycle = cycle + %d" % total)
                lines.append("else:")
                lines.append("    token.delay_override = None")
                if transition.delay:
                    lines.append("    token.ready_cycle = cycle + %d + _d" % transition.delay)
                else:
                    lines.append("    token.ready_cycle = cycle + _d")
                lines.append("token.place = %s" % pvar(target))
                used_stages.add(id(target.stage))
                lines.append("%s._occupancy += 1" % svar(target.stage))
                store = "pending" if target.two_list else "tokens"
                lines.append("%s.%s.append(token)" % (pvar(target), store))

        for arc in transition.reservation_outputs:
            place = arc.place
            if place is None or place.is_end:
                continue  # a reservation retired into end simply vanishes
            need_pool = True
            need_res = True
            producer = "token.seq" if token_mode else "None"
            total = transition.delay + place.delay
            lines.append("if pool:")
            lines.append("    _r = pool.pop()")
            lines.append("    _r.tag = %r" % transition.name)
            lines.append("    _r.delay_override = None")
            lines.append("else:")
            lines.append("    _r = RES(tag=%r)" % transition.name)
            lines.append("_r.producer_seq = %s" % producer)
            lines.append("_r.ready_cycle = cycle + %d" % total)
            lines.append("_r.place = %s" % pvar(place))
            used_stages.add(id(place.stage))
            lines.append("%s._occupancy += 1" % svar(place.stage))
            store = "pending" if place.two_list else "tokens"
            lines.append("%s.%s.append(_r)" % (pvar(place), store))

        # Emission drain: identical timing to the interpreted engine, which
        # drains the queue after *every* fire with the firing transition's
        # delay.  The queue is usually empty; the check is one attr load.
        lines.append("_q = engine._emission_queue")
        lines.append("if _q:")
        lines.append("    drain(_q, cycle, %d)" % transition.delay)
        return lines

    # ---- walk the model once to build the per-place cycle bodies ---------
    body = _Writer()
    indent0 = 3  # inside the cycle loop of `run_cycles` in `make_run_cycles`

    # Two-list commits first, exactly like SimulationEngine.step.
    if schedule.two_list_places:
        body.w(indent0, "# -- two-list (master/slave) commits")
        for place in schedule.two_list_places:
            pv = pvar(place)
            body.w(indent0, "if %s.pending:" % pv)
            body.w(indent0 + 1, "%s.tokens.extend(%s.pending)" % (pv, pv))
            body.w(indent0 + 1, "%s.pending = []" % pv)

    def emit_stall(indent, place_name):
        body.w(indent, "stats.stalls += 1")
        if traced_stall:
            body.w(indent, "TRS(cycle, %r, token)" % place_name)

    def emit_attempt_chain(indent, candidates, token_expr, place_name):
        """One if/elif chain of inlined attempts, else a stall."""
        first = True
        for transition in candidates:
            classify(transition)
            conjuncts = enable_conjuncts(transition, token_expr)
            condition = " and ".join(conjuncts) if conjuncts else "True"
            keyword = "if" if first else "elif"
            body.w(indent, "%s %s:  # %s" % (keyword, condition, transition.name))
            for line in fire_lines(transition, token_mode=True):
                body.w(indent + 1, line)
            body.w(indent + 1, "fired += 1")
            first = False
        body.w(indent, "else:")
        emit_stall(indent + 1, place_name)

    #: (place name, ((opclass, (transition names...)), ...)) per emitted
    #: place, nonempty entries only — the plan the source claims to
    #: implement, re-checked against the AST by repro.analyze.sourcecheck.
    dispatch_table = []

    for place in places:
        report.places_emitted += 1
        dispatch = []
        for opclass in net.operation_classes:
            candidates = schedule.transitions_for(place, opclass)
            report.dispatch_entries += 1
            if candidates:
                report.nonempty_dispatch_entries += 1
                dispatch.append((opclass, tuple(candidates)))
        dispatch_table.append((
            place.name,
            tuple(
                (opclass, tuple(t.name for t in candidates))
                for opclass, candidates in dispatch
            ),
        ))

        pv = pvar(place)
        may_hold_reservations = id(place) in reservation_places
        single_token = place.stage.capacity == 1
        if single_token:
            report.single_token_places += 1

        body.w(indent0, "# -- place %r (stage %r)" % (place.name, place.stage.name))
        body.w(indent0, "_t = %s.tokens" % pv)
        body.w(indent0, "if _t:")
        if single_token:
            # A capacity-1 stage can hold at most one token across all of
            # its places, so the ready-snapshot list is replaced by a
            # direct look at the single stored token.
            body.w(indent0 + 1, "token = _t[0]")
            ready = "token.ready_cycle <= cycle"
            if may_hold_reservations:
                ready = "token.is_instruction and " + ready
            body.w(indent0 + 1, "if %s:" % ready)
            inner = indent0 + 2
            if dispatch:
                body.w(inner, "_oc = token.opclass")
                first = True
                for opclass, candidates in dispatch:
                    keyword = "if" if first else "elif"
                    body.w(inner, "%s _oc == %r:" % (keyword, opclass))
                    emit_attempt_chain(inner + 1, candidates, "token", place.name)
                    first = False
                body.w(inner, "else:")
                emit_stall(inner + 1, place.name)
            else:
                emit_stall(inner, place.name)
        else:
            if may_hold_reservations:
                comp = "[t for t in _t if t.is_instruction and t.ready_cycle <= cycle]"
            else:
                comp = "[t for t in _t if t.ready_cycle <= cycle]"
            body.w(indent0 + 1, "for token in %s:" % comp)
            body.w(indent0 + 2, "if token.place is not %s:" % pv)
            body.w(indent0 + 3, "continue  # moved by an earlier firing this cycle")
            inner = indent0 + 2
            if dispatch:
                body.w(inner, "_oc = token.opclass")
                first = True
                for opclass, candidates in dispatch:
                    keyword = "if" if first else "elif"
                    body.w(inner, "%s _oc == %r:" % (keyword, opclass))
                    emit_attempt_chain(inner + 1, candidates, "token", place.name)
                    first = False
                body.w(inner, "else:")
                emit_stall(inner + 1, place.name)
            else:
                emit_stall(inner, place.name)

    # Generator transitions (the instruction-independent sub-net).
    for transition in schedule.generator_transitions:
        classify(transition)
        conjuncts = enable_conjuncts(transition, "None")
        condition = " and ".join(conjuncts) if conjuncts else "True"
        limit = transition.max_firings_per_cycle
        body.w(indent0, "# -- generator %r" % transition.name)
        if limit == 1:
            body.w(indent0, "if %s:" % condition)
            for line in fire_lines(transition, token_mode=False):
                body.w(indent0 + 1, line)
            body.w(indent0 + 1, "fired += 1")
        else:
            body.w(indent0, "_n = 0")
            body.w(indent0, "while _n < %d:" % limit)
            body.w(indent0 + 1, "if not (%s):" % condition)
            body.w(indent0 + 2, "break")
            for line in fire_lines(transition, token_mode=False):
                body.w(indent0 + 1, line)
            body.w(indent0 + 1, "_n += 1")
            body.w(indent0, "fired += _n")

    if options.collect_utilization:
        body.w(indent0, "for _st in _STAGES:")
        body.w(indent0 + 1, "_st.occupancy_accumulator += _st._occupancy")

    # ---- assemble the module ---------------------------------------------
    out = _Writer()
    out.w(0, '"""Generated simulator cycle loop for model %r (repro.codegen).' % net.name)
    out.w(0, "")
    out.w(0, "Auto-generated source: do not edit.  Emitted once per process for")
    out.w(0, "each spec fingerprint, structure digest and set of emit-relevant")
    out.w(0, "engine options (see repro/codegen/cache.py).")
    out.w(0, '"""')
    out.w(0, "")
    out.w(0, "CODEGEN_KEY = %r" % key)
    out.w(0, "MODEL = %r" % net.name)
    out.w(0, "SPEC_FINGERPRINT = %r" % getattr(net, "spec_fingerprint", None))
    out.w(0, "STRUCTURE_DIGEST = %r" % structure_digest(net))
    out.w(0, "PLACES = %r" % (tuple(place.name for place in places),))
    out.w(0, "STAGES = %r" % (tuple(stage.name for stage in stages),))
    out.w(0, "TRANSITIONS = %r" % (tuple(t.name for t in transitions),))
    out.w(0, "DISPATCH = %r" % (tuple(dispatch_table),))
    out.w(0, "GENERATORS = %r" % (
        tuple(t.name for t in schedule.generator_transitions),
    ))
    if trace_categories:
        out.w(0, "TRACE_CATEGORIES = %r" % (trace_categories,))
    out.w(0, "")
    out.w(0, "")
    out.w(0, "def make_run_cycles(rt):")
    out.w(1, "engine = rt['engine']")
    out.w(1, "ctx = rt['ctx']")
    out.w(1, "deposit = rt['deposit']")
    out.w(1, "entry_places = rt['entry_places']")
    out.w(1, "entry_place_for = rt['entry_place_for']")
    if need_pool:
        out.w(1, "pool = rt['pool']")
    if need_res:
        out.w(1, "RES = rt['ReservationToken']")
    if traced_firing:
        out.w(1, "TRF = rt['trace_firing']")
    if traced_stall:
        out.w(1, "TRS = rt['trace_stall']")
    out.w(1, "P = rt['places']")
    out.w(1, "S = rt['stages']")
    if used_guards:
        out.w(1, "G = rt['guards']")
    if used_actions:
        out.w(1, "A = rt['actions']")
    if used_controls:
        out.w(1, "C = rt['controls']")
    for index in range(len(places)):
        out.w(1, "p%d = P[%d]" % (index, index))
    for index, stage in enumerate(stages):
        if id(stage) in used_stages:
            out.w(1, "s%d = S[%d]" % (index, index))
    for index in sorted(used_guards):
        out.w(1, "g%d = G[%d]" % (index, index))
    for index in sorted(used_actions):
        out.w(1, "a%d = A[%d]" % (index, index))
    for index in sorted(used_controls):
        out.w(1, "c%d = C[%d]" % (index, index))
    if options.collect_utilization:
        out.w(1, "_STAGES = tuple(S)")
    out.w(0, "")
    # Token delivery for the emission drain: SimulationEngine._deposit +
    # Place.deposit as field operations.  End places (retire), unlimited
    # stages and full stages (CapacityError) take the engine's _deposit.
    out.w(1, "def drain(queue, cycle, delay):")
    out.w(2, "engine._emission_queue = []")
    out.w(2, "stats = engine.stats")
    out.w(2, "for token, place in queue:")
    out.w(3, "if place is None:")
    out.w(4, "place = entry_places.get(token.opclass)")
    out.w(4, "if place is None:")
    out.w(5, "place = entry_place_for(token.opclass)  # raises ModelError")
    out.w(3, "stats.generated_tokens += 1")
    out.w(3, "stage = place.stage")
    out.w(3, "capacity = stage.capacity")
    out.w(3, "if capacity is None or stage._occupancy >= capacity:")
    out.w(4, "deposit(token, place, delay)")
    out.w(4, "continue")
    out.w(3, "residence = token.delay_override")
    out.w(3, "if residence is None:")
    out.w(4, "residence = place.delay")
    out.w(3, "else:")
    out.w(4, "token.delay_override = None")
    out.w(3, "token.ready_cycle = cycle + delay + residence")
    out.w(3, "token.place = place")
    out.w(3, "stage._occupancy += 1")
    out.w(3, "if place.two_list:")
    out.w(4, "place.pending.append(token)")
    out.w(3, "else:")
    out.w(4, "place.tokens.append(token)")
    out.w(0, "")
    out.w(1, "def run_cycles(limit):")
    out.w(2, "stats = engine.stats")
    out.w(2, "tf = stats.transition_firings")
    if need_rbc:
        out.w(2, "rbc = stats.retired_by_class")
    out.w(2, "cycle = engine.cycle")
    out.w(2, "while True:")
    out.w(3, "fired = 0")
    out.w(3, "_stalls = stats.stalls")
    out.w(3, "engine._cycle_read = False")
    out.lines.extend(body.lines)
    out.w(3, "cycle += 1")
    out.w(3, "engine.cycle = cycle")
    out.w(3, "stats.cycles = cycle")
    out.w(3, "if not fired:")
    out.w(4, "engine._idle_cycles += 1")
    out.w(4, "engine._idle_stalls = stats.stalls - _stalls")
    out.w(4, "return 0")
    out.w(3, "engine._idle_cycles = 0")
    out.w(3, "if cycle >= limit or engine.halt_requested:")
    out.w(4, "return fired")
    out.w(0, "")
    out.w(1, "return run_cycles")

    # Embed the specialisation report so cache hits (which skip emission)
    # can still describe the module they loaded.
    report.source_lines = len(out.lines) + 2
    out.w(0, "")
    out.w(0, "EMIT_REPORT = %r" % (report.summary(),))

    return out.source(), report
