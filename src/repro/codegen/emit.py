"""Source-level simulator generation: emit one RCPN model as Python code.

This module performs the last step of the paper's generation idea and
emits real Python **source**: one ``run_cycles(limit)`` function per model
whose cycle loop holds a single straight-line copy of the per-cycle body,
in which every static decision is already text —

* the static schedule's dispatch tables appear as ``if/elif`` chains on
  the token's operation class, one inlined attempt per candidate
  transition in arc-priority order;
* capacity checks are the transition's static capacity plan
  (:func:`repro.core.scheduler.capacity_plan`) written out, one literal
  comparison per pair (``s3._occupancy <= 1``), none for a plan without
  pairs;
* token movement is flattened to direct field operations on the
  preallocated place/stage objects (list ``append``/``remove``,
  ``_occupancy`` adjustments) instead of ``Place.deposit``/``remove``
  calls, with residence delays folded into literals;
* guard-free transitions fire with no call at all;
* the semantic hooks are spliced in: where a transition's guard or action
  is a hook template's own closure (:func:`repro.codegen.runtime.
  splice_plan`), the template's source — register-hazard protocol, decode
  and L1 hits inline — takes the call's place, rendered for the site's
  emit-time facts (:func:`repro.codegen.runtime.splice_site`).  The
  multi-issue gates are template text of the hooks they gate, so the
  arbiter calls are spliced with the issue port as a source literal and
  the advance gate with its source stage's local;
* the fetch is straight-line code: the model's absent stall stage and
  issue control cost no test, the BTB lookup is inline, the L1I latency
  passes to ``ready_cycle`` through a local, and the token goes straight
  into its entry place (an operation class -> place table bound once)
  where the capacity check proves the entry stage has room
  (:func:`repro.codegen.runtime.entry_stage`), else through the engine's
  checked deposit.  A fetch from the line the L1I accessed last
  (``Cache.last_line``, its set's most recently used) counts a hit with
  no set lookup or LRU update;
* what the templates prove dead is not emitted: the emission-queue drain
  after a fire whose hooks are all spliced, the ``delay_override`` branch
  where no spliced hook writes the token delay, and the operation-class
  compare on places only one class can reach
  (:func:`repro.codegen.runtime.implicit_dispatch`);
* tokens emitted by called actions are delivered by the engine's own
  :meth:`~repro.core.engine.SimulationEngine.deliver_emissions`, the
  method the interpreted engine's firings call;
* a decoded token retiring into an end place goes back onto its decode
  template's free list (:class:`repro.core.decoder.DecodedTemplate`), and
  the fetch's ``@decode`` renews it for a later fetch of the same word, so
  the steady state allocates no tokens.  Squashed tokens, which leave
  through the engine's shared flush code, are left to the collector;
* the loop's hot state lives in locals of ``run_cycles``: each place's
  ``tokens`` (``pNt``) and ``pending`` (``pNp``) list is bound once in
  ``make_run_cycles`` (places mutate them in place, never rebind them),
  so an empty place costs one local load and a truth test, and a move is
  one list call.

``run_cycles(limit)`` also owns the per-cycle bookkeeping: it advances
``engine.cycle`` every cycle and returns after the first idle cycle
(noting ``engine._idle_stalls`` for the idle fast-forward), when
``limit`` is reached, or once a halt is requested — exactly the points at
which ``SimulationEngine.run``'s checks can change their answer, so a
whole busy stretch costs one call from the run loop.

The statistics counters are *run-local*: plain int locals zeroed on entry
— one firing count per transition (``tfN``), one retirement count per
operation class where the retire site's class is static (``rbcN``), and
``stalls``, ``instructions`` and ``generated_tokens`` — and so are the
spliced front end's counters of main-memory reads, decode-cache hits, L1I
hits and BTB lookups and hits
(:data:`repro.describe.templates.FRONT_END_COUNTERS`).  The objects the
front end reads are bound once in ``make_run_cycles`` or, where a reset
rebinds them (the caches, the BTB table, the decode sequence), on entry
to ``run_cycles`` (:data:`repro.describe.templates.FRONT_END_LOCALS`).
One ``try``/``finally`` around the cycle loop adds each counter into its
statistics, once, however the stretch ends (an exception included), and sets
``stats.cycles`` and ``engine._idle_cycles`` from the loop's ``cycle``.
A key of ``transition_firings`` or ``retired_by_class`` appears only once
its count is nonzero, as in the interpreted engine.  Before each call to
a hook that may read ``ctx.stats`` — an opaque hook, or a template whose
source names ``stats`` (:func:`reads_stats`) — the loop writes the
counters back and zeroes them, so such a hook sees exact statistics; the
built-in templates do not, and their models' loops write back only in the
``finally``.  :mod:`repro.analyze.sourcecheck` (SV009) proves every
counter zeroed on entry and added into the right statistic exactly once.

The emitted module is code only — no module-level constants, no name of
the model — and net-object free: ``make_run_cycles(rt)`` binds the live
places/stages/guards by index (:func:`repro.codegen.runtime.
build_runtime`).  So one emitted module serves every net of the same
structure within a process, memoised under the structure digest
(:mod:`repro.codegen.cache`).

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
the fast path is untouched.  The ``hostcost`` category is an emission mode
of the same kind: it wraps every spliced guard and action site in
``perf_counter_ns`` accumulators (:class:`repro.codegen.runtime.HostCost`),
so host time stays attributable per hook once the hooks are inlined.
"""

from __future__ import annotations

from repro.codegen.cache import emit_trace_categories
from repro.codegen.runtime import (
    implicit_dispatch,
    inlined,
    opaque_hooks,
    splice_plan,
    splice_site,
)
from repro.describe.templates import FRONT_END_COUNTERS, front_end_needs, names_used, render


def reads_stats(template):
    """True when a hook may read ``ctx.stats``.

    ``template`` is the hook's template, ``None`` for an opaque hook, which
    may read anything; a template reads them only if its source names them.
    """
    return template is None or template.reads_stats


class _Writer:
    def __init__(self):
        self.lines = []

    def w(self, indent, text=""):
        self.lines.append("    " * indent + text if text else "")

    def source(self):
        return "\n".join(self.lines) + "\n"


def emit_module_source(net, schedule, options):
    """Emit the Python source of one model's generated simulator.

    The source defines ``make_run_cycles(rt)`` returning
    ``run_cycles(limit) -> fired``, which simulates cycles until the first
    idle one, ``limit`` or a halt request and returns the last cycle's
    firing count; ``rt`` is the binding dict of
    :func:`repro.codegen.runtime.build_runtime`.
    """
    trace_categories = emit_trace_categories(options)
    traced_firing = "firing" in trace_categories
    traced_stall = "stall" in trace_categories
    hostcost = "hostcost" in trace_categories

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

    def tokens_var(place):
        return "p%dt" % place_index[id(place)]

    def store_var(place):
        """The list a token deposited into ``place`` joins."""
        return "p%d%s" % (place_index[id(place)], "p" if place.two_list else "t")

    opclass_index = {opclass: index for index, opclass in enumerate(net.operation_classes)}

    #: Places that can ever hold a reservation token: only reservation
    #: output arcs deposit them, so this set is exact and lets the ready
    #: filter of every other place drop the ``is_instruction`` test.
    reservation_places = set()
    for transition in transitions:
        for arc in transition.reservation_outputs:
            if arc.place is not None:
                reservation_places.add(id(arc.place))

    splices, env = splice_plan(net)
    env = env if env is not None else {}
    implicit = implicit_dispatch(net, splices)
    #: An opaque hook may set a token's delay on any transition — even a
    #: guard that then fails — so it keeps every delay_override branch.
    opaque = opaque_hooks(net, splices)

    emitted_transitions = set()
    used_stages = set()
    used_guards = set()
    used_actions = set()
    used_env = set()
    hostcost_sites = {}  # (kind, hook key) -> accumulator variable
    need_res = False
    need_rbc = False

    def enable_conjuncts(transition, token_expr):
        """The enable rule as an ordered list of conjunct expressions.

        Order matters and mirrors ``SimulationEngine.blocked_by``:
        reservation inputs, then one comparison per capacity plan pair,
        then the guard.
        """
        index = transition_index[id(transition)]
        conjuncts = []
        for arc in transition.reservation_inputs:
            conjuncts.append("%s.has_reservation()" % pvar(arc.place))
        for stage, max_occupancy in transition.capacity_plan:
            used_stages.add(id(stage))
            conjuncts.append("%s._occupancy <= %d" % (svar(stage), max_occupancy))
        template = splices[index][0]
        if (index, 0) in spliced:
            rendering = spliced[index, 0]
            guard = rendering.guard
            used_env.update(names_used(rendering.guard_names, env))
            if hostcost:
                conjuncts.append("%s(NS(), %s)" % (hostcost_var("guard", template.key), guard))
            else:
                conjuncts.append("(%s)" % guard)
        elif transition.guard is not None:
            used_guards.add(index)
            conjuncts.append("g%d(%s, ctx)" % (index, token_expr))
        return conjuncts

    #: Transitions whose guard may read ``ctx.stats``; none on the built-in models.
    stats_guards = {
        id(transition)
        for transition, (guard, _action) in zip(transitions, splices)
        if transition.guard is not None and reads_stats(guard)
    }

    def static_retire_class(transition, opclass):
        """The retiring token's class where the dispatch decided it
        (``opclass``) and no hook may have changed it, else ``None``."""
        template = splices[transition_index[id(transition)]][1]
        if opaque or "opclass" in (getattr(template, "action", None) or ""):
            return None
        return opclass

    def retires(transition):
        target = transition.target
        return not transition.consumes_token and target is not None and target.is_end

    # ---- fix the run-local counters before the walk ----------------------
    #: Per place: the attempt chains the cycle body emits for it as
    #: (opclass, candidates) — one chain with the place's class for an
    #: implicit dispatch.
    place_dispatch = []
    retired_classes = set()
    for place in places:
        dispatch = []
        for opclass in net.operation_classes:
            candidates = schedule.transitions_for(place, opclass)
            if candidates:
                dispatch.append((opclass, tuple(candidates)))
        if dispatch and id(place) in implicit:
            chains = [(implicit[id(place)], dispatch[0][1])]
        else:
            chains = dispatch
        place_dispatch.append((place, chains))
        for opclass, candidates in chains:
            for transition in candidates:
                emitted_transitions.add(transition_index[id(transition)])
                if retires(transition):
                    retired_classes.add(static_retire_class(transition, opclass))
    for transition in schedule.generator_transitions:
        emitted_transitions.add(transition_index[id(transition)])
    retired_classes.discard(None)

    #: (transition index, 0 for the guard or 1 for the action) -> the
    #: splice rendering at its site, and every name those read (the front
    #: end's loop locals and run-local counters among them).
    spliced = {}
    spliced_names = set()
    for index in emitted_transitions:
        for kind, template in enumerate(splices[index]):
            if inlined(transitions[index], template):
                rendering = spliced[index, kind] = render(
                    template, "splice", splice_site(net, transitions[index], template)
                )
                spliced_names.update(rendering.guard_names | rendering.action_names)
    front_end_counters, front_end_locals, needed = front_end_needs(spliced_names)
    used_env.update(names_used(needed, env))

    #: The run-local counters: (local, statistics it adds into).
    counters = [
        ("tf%d" % index, ("tf[%r]" % transitions[index].name,))
        for index in sorted(emitted_transitions)
    ]
    counters += [(name, ("stats.%s" % name,)) for name in ("stalls", "instructions", "generated_tokens")]
    counters += [
        ("rbc%d" % opclass_index[opclass], ("rbc[%r]" % opclass,))
        for opclass in sorted(retired_classes, key=opclass_index.get)
    ]
    counters += [(name, FRONT_END_COUNTERS[name]) for name in front_end_counters]

    def write_back(zero):
        """Add every counter into its statistics (and zero it, mid-stretch)."""
        lines = []
        for local, statistics in counters:
            if local.startswith(("tf", "rbc")):
                # A key appears only once its count is nonzero, as in
                # the interpreted engine.
                lines.append("if %s:" % local)
                lines.append("    %s += %s" % (statistics[0], local))
                if zero:
                    lines.append("    %s = 0" % local)
            else:
                lines.extend("%s += %s" % (statistic, local) for statistic in statistics)
                if zero:
                    if local == "stalls":
                        lines.append("_stalls -= stalls")  # keep the idle cycle's count
                    lines.append("%s = 0" % local)
        return lines

    #: Statistics exact for a hook that may read them, written back before
    #: its call.
    mid_stretch = ["stats.cycles = cycle"] + write_back(zero=True)

    def hostcost_var(kind, key):
        return hostcost_sites.setdefault((kind, key), "hc%s%d" % (kind[0], len(hostcost_sites)))

    def fire_lines(transition, token_mode, opclass=None):
        """The fire rule, flattened to field operations.

        Mirrors the interpreted firing (inline in ``SimulationEngine.step``,
        ``_fire_generator`` in generator mode) step for step: firing counter,
        source removal, reservation-input consumption, action, token
        deposit (or retire), reservation-output deposits, emission drain.
        ``opclass`` is the firing token's operation class where the
        dispatch decided it.
        """
        nonlocal need_res, need_rbc
        index = transition_index[id(transition)]
        lines = ["tf%d += 1" % index]
        if traced_firing:
            lines.append(
                "TRF(cycle, %r, %s)" % (transition.name, "t" if token_mode else "None")
            )

        if token_mode:
            source = transition.source
            used_stages.add(id(source.stage))
            lines.append("%s.remove(t)" % tokens_var(source))
            lines.append("t.place = None")
            lines.append("%s._occupancy -= 1" % svar(source.stage))

        for arc in transition.reservation_inputs:
            lines.append("%s.take_reservation()" % pvar(arc.place))

        template = splices[index][1]
        inline = (index, 1) in spliced
        if transition.action is not None and reads_stats(template):
            lines.extend(mid_stretch)
        if inline:
            rendering = spliced[index, 1]
            action = rendering.action
            used_env.update(names_used(rendering.action_names, env))
            if hostcost:
                lines.append("_hc = NS()")
            lines.extend(action)
            if hostcost:
                lines.append("%s(_hc)" % hostcost_var("action", template.key))
        elif transition.action is not None:
            used_actions.add(index)
            lines.append("a%d(%s, ctx)" % (index, "t" if token_mode else "None"))
        # Only an opaque hook or a called emitting template queues an
        # emission; a resident token's delay_override is None unless an
        # opaque hook or this transition's action set it.
        guard_template = splices[index][0]
        called = (transition.guard is not None and guard_template is None) or (
            transition.action is not None and (template is None or (not inline and template.emits))
        )
        delay_written = opaque or (template is not None and template.writes_delay)

        target = transition.target
        if token_mode and not transition.consumes_token and target is not None:
            if target.is_end:
                lines.append("instructions += 1")
                retired = static_retire_class(transition, opclass)
                if retired is not None:
                    lines.append("rbc%d += 1" % opclass_index[retired])
                else:
                    need_rbc = True
                    lines.append("rbc[t.opclass] += 1")
                # Retired: back to its decode-cache entry for the next
                # fetch of the word (InstructionDecoder renews it).
                lines.append("_tm = t.template")
                lines.append("if _tm is not None:")
                lines.append("    _tm.free.append(t)")
            else:
                total = transition.delay + target.delay
                if delay_written:
                    lines.append("_d = t.delay_override")
                    lines.append("if _d is None:")
                    lines.append("    t.ready_cycle = cycle + %d" % total)
                    lines.append("else:")
                    lines.append("    t.delay_override = None")
                    if transition.delay:
                        lines.append("    t.ready_cycle = cycle + %d + _d" % transition.delay)
                    else:
                        lines.append("    t.ready_cycle = cycle + _d")
                else:
                    lines.append("t.ready_cycle = cycle + %d" % total)
                lines.append("t.place = %s" % pvar(target))
                used_stages.add(id(target.stage))
                lines.append("%s._occupancy += 1" % svar(target.stage))
                lines.append("%s.append(t)" % store_var(target))

        for arc in transition.reservation_outputs:
            place = arc.place
            if place is None or place.is_end:
                continue  # a reservation retired into end simply vanishes
            need_res = True
            total = transition.delay + place.delay
            lines.append("_r = RES(%s)" % ("t.seq" if token_mode else "None"))
            lines.append("_r.ready_cycle = cycle + %d" % total)
            lines.append("_r.place = %s" % pvar(place))
            used_stages.add(id(place.stage))
            lines.append("%s._occupancy += 1" % svar(place.stage))
            lines.append("%s.append(_r)" % store_var(place))

        # Emission delivery: the interpreted engine's own, after *every*
        # fire with the firing transition's delay.  Only a called hook can
        # queue an emission.
        if called:
            lines.append("if engine._emission_queue:")
            lines.append("    engine.deliver_emissions(%d)" % transition.delay)
        return lines

    # ---- walk the model once to build the per-place cycle bodies ---------
    body = _Writer()
    indent0 = 4  # inside the cycle loop (in its `try`) of `run_cycles` in `make_run_cycles`

    # Two-list commits first, exactly like SimulationEngine.step.
    if schedule.two_list_places:
        body.w(indent0, "# -- two-list (master/slave) commits")
        for place in schedule.two_list_places:
            pending = store_var(place)
            body.w(indent0, "if %s:" % pending)
            body.w(indent0 + 1, "%s.extend(%s)" % (tokens_var(place), pending))
            body.w(indent0 + 1, "%s.clear()" % pending)

    def emit_stall(indent, place_name):
        body.w(indent, "stalls += 1")
        if traced_stall:
            body.w(indent, "TRS(cycle, %r, t)" % place_name)

    def emit_attempt_chain(indent, candidates, opclass, place_name):
        """One if/elif chain of inlined attempts, else a stall."""
        first = True
        for transition in candidates:
            conjuncts = enable_conjuncts(transition, "t")
            condition = " and ".join(conjuncts) if conjuncts else "True"
            keyword = "if" if first else "elif"
            body.w(indent, "%s %s:  # %s" % (keyword, condition, transition.name))
            for line in fire_lines(transition, token_mode=True, opclass=opclass):
                body.w(indent + 1, line)
            body.w(indent + 1, "fired += 1")
            first = False
        body.w(indent, "else:")
        emit_stall(indent + 1, place_name)

    def emit_dispatch(inner, place, chains):
        """The ready token's dispatch: on its operation class, unless implicit."""
        # Nothing fires between the dispatch and a failed guard, so one
        # write-back covers every guard of the chains that read stats.
        if any(id(t) in stats_guards for _opclass, candidates in chains for t in candidates):
            for line in mid_stretch:
                body.w(inner, line)
        if not chains:
            emit_stall(inner, place.name)
        elif id(place) in implicit:
            opclass, candidates = chains[0]
            emit_attempt_chain(inner, candidates, opclass, place.name)
        else:
            body.w(inner, "_oc = t.opclass")
            first = True
            for opclass, candidates in chains:
                keyword = "if" if first else "elif"
                body.w(inner, "%s _oc == %r:" % (keyword, opclass))
                emit_attempt_chain(inner + 1, candidates, opclass, place.name)
                first = False
            body.w(inner, "else:")
            emit_stall(inner + 1, place.name)

    for place, chains in place_dispatch:
        pv = pvar(place)
        tokens = tokens_var(place)
        may_hold_reservations = id(place) in reservation_places
        single_token = place.stage.capacity == 1

        body.w(indent0, "# -- place %r (stage %r)" % (place.name, place.stage.name))
        body.w(indent0, "if %s:" % tokens)
        if single_token:
            # A capacity-1 stage can hold at most one token across all of
            # its places, so the ready-snapshot list is replaced by a
            # direct look at the single stored token.
            body.w(indent0 + 1, "t = %s[0]" % tokens)
            ready = "t.ready_cycle <= cycle"
            if may_hold_reservations:
                ready = "t.is_instruction and " + ready
            body.w(indent0 + 1, "if %s:" % ready)
            emit_dispatch(indent0 + 2, place, chains)
        else:
            if may_hold_reservations:
                comp = "[t for t in %s if t.is_instruction and t.ready_cycle <= cycle]" % tokens
            else:
                comp = "[t for t in %s if t.ready_cycle <= cycle]" % tokens
            body.w(indent0 + 1, "for t in %s:" % comp)
            body.w(indent0 + 2, "if t.place is not %s:" % pv)
            body.w(indent0 + 3, "continue  # moved by an earlier firing this cycle")
            emit_dispatch(indent0 + 2, place, chains)

    # Generator transitions (the instruction-independent sub-net).
    for transition in schedule.generator_transitions:
        conjuncts = enable_conjuncts(transition, "None")
        condition = " and ".join(conjuncts) if conjuncts else "True"
        limit = transition.max_firings_per_cycle
        write_back_lines = mid_stretch if id(transition) in stats_guards else ()
        body.w(indent0, "# -- generator %r" % transition.name)
        if limit == 1:
            for line in write_back_lines:
                body.w(indent0, line)
            body.w(indent0, "if %s:" % condition)
            for line in fire_lines(transition, token_mode=False):
                body.w(indent0 + 1, line)
            body.w(indent0 + 1, "fired += 1")
        else:
            body.w(indent0, "_n = 0")
            body.w(indent0, "while _n < %d:" % limit)
            for line in write_back_lines:
                body.w(indent0 + 1, line)
            body.w(indent0 + 1, "if not (%s):" % condition)
            body.w(indent0 + 2, "break")
            for line in fire_lines(transition, token_mode=False):
                body.w(indent0 + 1, line)
            body.w(indent0 + 1, "_n += 1")
            body.w(indent0, "fired += _n")

    # ---- assemble the module ---------------------------------------------
    out = _Writer()
    out.w(0, "def make_run_cycles(rt):")
    out.w(1, "engine = rt['engine']")
    out.w(1, "ctx = rt['ctx']")
    for name in ("deposit", "entry_places", "trace_token"):
        if name in spliced_names:
            out.w(1, "%s = rt[%r]" % (name, name))
    if used_env:
        out.w(1, "H = rt['hook_env']")
        for name in sorted(used_env):
            out.w(1, "%s = H[%r]" % (name, name))
    for name, expression, per_stretch in front_end_locals:
        if not per_stretch:
            out.w(1, "%s = %s" % (name, expression))
    if hostcost_sites:
        out.w(1, "NS = rt['perf_counter_ns']")
        out.w(1, "HC = rt['hostcost']")
        for (kind, key), var in hostcost_sites.items():
            out.w(1, "%s = HC.%s(%r)" % (var, kind, key))
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
    for index in range(len(places)):
        out.w(1, "p%d = P[%d]" % (index, index))
    for index, stage in enumerate(stages):
        if id(stage) in used_stages:
            out.w(1, "s%d = S[%d]" % (index, index))
    for index in sorted(used_guards):
        out.w(1, "g%d = G[%d]" % (index, index))
    for index in sorted(used_actions):
        out.w(1, "a%d = A[%d]" % (index, index))
    # Each place's lists, bound once: places mutate them in place.
    for index, place in enumerate(places):
        out.w(1, "p%dt = p%d.tokens" % (index, index))
        if place.two_list:
            out.w(1, "p%dp = p%d.pending" % (index, index))
    out.w(0, "")
    out.w(1, "def run_cycles(limit):")
    out.w(2, "stats = engine.stats")
    out.w(2, "tf = stats.transition_firings")
    if need_rbc or retired_classes:
        out.w(2, "rbc = stats.retired_by_class")
    out.w(2, "cycle = cycle0 = engine.cycle")
    out.w(2, "idle0 = engine._idle_cycles")
    for name, expression, per_stretch in front_end_locals:
        if per_stretch:
            out.w(2, "%s = %s" % (name, expression))
    for local, _statistic in counters:
        out.w(2, "%s = 0" % local)
    out.w(2, "try:")
    out.w(3, "while True:")
    out.w(4, "fired = 0")
    out.w(4, "_stalls = stalls")
    out.lines.extend(body.lines)
    out.w(4, "cycle += 1")
    out.w(4, "engine.cycle = cycle")
    out.w(4, "if not fired:")
    out.w(5, "break")
    out.w(4, "if cycle >= limit or engine.halt_requested:")
    out.w(5, "return fired")
    out.w(2, "finally:")
    out.w(3, "stats.cycles = cycle")
    out.w(3, "if cycle != cycle0:")
    out.w(4, "engine._idle_cycles = 0")
    for line in write_back(zero=False):
        out.w(3, line)
    out.w(2, "engine._idle_cycles = idle0 + 1 if cycle == cycle0 + 1 else 1")
    out.w(2, "engine._idle_stalls = stalls - _stalls")
    out.w(2, "return 0")
    out.w(0, "")
    out.w(1, "return run_cycles")

    return out.source()
