"""Emitted-source verification: prove the generated module matches its plan.

The generated backend ``exec``s emitted Python and trusts it to
implement the generation plan.  This pass removes the trust: it parses the
emitted module with :mod:`ast` and re-derives, from the *text*, the plan
the module actually implements — the place-segment order, the per-place
operation-class dispatch branches, every firing-counter site, every
enable test (a called guard's call among its conjuncts), every called
action, every ``TRF``/``TRS`` trace
site, every spliced hook body, every run-local counter's zeroing and
write-back — and compares each against an independent recomputation from
the net and its static schedule (:func:`repro.codegen.runtime.splice_plan`,
:meth:`~repro.core.scheduler.StaticSchedule.transitions_for` and each
transition's ``capacity_plan``).  An enable test must be the transition's
reservation, capacity-plan and guard conjuncts in that order, and a
spliced guard or action is re-rendered from the same hook template
(:func:`repro.describe.templates.render`) and must appear at its site
statement for statement (SV008); an issue or advance gate must be the
transition's issue plan written out, and an issue's booking must appear
among its fire statements (SV010).  The module says nothing about itself
(no header of names or keys), so every check reads code against the live
net: that is what makes one module, memoised by structure, safe to share
between nets.

``verify_backend`` extends the idea to the interpreted reference: its
(possibly cache-hydrated) schedule is checked against a fresh derivation,
and each transition's capacity plan against the limits the enable rule's
capacity clause, evaluated stage by stage, allows.
"""

from __future__ import annotations

import ast
import re
from collections import Counter

from repro.analyze.findings import finding
from repro.describe.templates import FRONT_END_COUNTERS

#: A place segment opens with ``if pNt:``, the test of place N's token list.
_SEGMENT = re.compile(r"p(\d+)t")
#: ``tfN`` counts transition N's firings, ``rbcN`` retirements of class N.
_FIRINGS = re.compile(r"tf(\d+)")
_RETIRED = re.compile(r"rbc(\d+)")
_STALLS = re.compile("stalls")
#: The run-local counters that add into a statistic of the same name.
_SCALAR_COUNTERS = ("stalls", "instructions", "generated_tokens")


def _find_function(tree, name):
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name == name:
            return node
    return None


def _increment(node, pattern):
    """The name of the counter ``node`` adds 1 to, if it matches ``pattern``."""
    if (
        isinstance(node, ast.AugAssign)
        and isinstance(node.op, ast.Add)
        and isinstance(node.target, ast.Name)
        and pattern.fullmatch(node.target.id)
        and isinstance(node.value, ast.Constant)
        and node.value.value == 1
    ):
        return node.target.id
    return None


class _CycleFacts:
    """Everything the verifier reads out of one emitted cycle body.

    ``transition_names`` maps a firing counter ``tfN`` to its transition.
    """

    def __init__(self, body, transition_names, generator_names=()):
        self._names = tuple(transition_names)
        #: (transition name, enable test, fire statements) per attempt site.
        self.attempts = list(_attempts(body, self._names))
        #: Place indices in segment order (one per ``if pNt:``).
        self.segment_order = []
        #: Per segment: list of (opclass, [fired transition names]) chains.
        self.segments = []
        #: Firing sites of generator transitions, in source order.
        self.generator_fires = []
        #: True when a place segment starts *after* a generator fire — the
        #: generator section must trail every dispatch segment.
        self.misplaced_generators = False
        self.fire_counts = Counter()
        self.stall_sites = 0
        self.trf_calls = 0
        self.trs_calls = 0
        self.action_calls = Counter()  # aN -> call sites
        self._generator_names = frozenset(generator_names)

        events = []
        for node in ast.walk(body):
            event = self._classify(node)
            if event is not None:
                events.append((node.lineno, node.col_offset, event))
        events.sort(key=lambda item: (item[0], item[1]))
        self._fold(event for _line, _col, event in events)

    def _classify(self, node):
        if isinstance(node, ast.If):
            # `if pNt:` marks the start of one place segment.
            if isinstance(node.test, ast.Name):
                match = _SEGMENT.fullmatch(node.test.id)
                if match:
                    return ("place", int(match.group(1)))
        elif isinstance(node, ast.Compare):
            # `_oc == 'opclass'` opens one dispatch branch.
            if (
                isinstance(node.left, ast.Name)
                and node.left.id == "_oc"
                and len(node.ops) == 1
                and isinstance(node.ops[0], ast.Eq)
                and isinstance(node.comparators[0], ast.Constant)
            ):
                return ("oc", node.comparators[0].value)
        elif isinstance(node, ast.AugAssign):
            # `tfN += 1` is the firing counter of one attempt.
            name = _fire_name(node, self._names)
            if name is not None:
                return ("fire", name)
            # `stalls += 1` is one stall site.
            if _increment(node, _STALLS):
                return ("stall",)
        elif isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name):
                if func.id in ("TRF", "TRS"):
                    return ("trace", func.id)
                if func.id[:1] == "a" and func.id[1:].isdigit():
                    return ("action", func.id)
        return None

    def _fold(self, events):
        for event in events:
            kind = event[0]
            if kind == "place":
                self.segment_order.append(event[1])
                self.segments.append([])
                if self.generator_fires:
                    self.misplaced_generators = True
            elif kind == "oc":
                if self.segments:
                    self.segments[-1].append((event[1], []))
            elif kind == "fire":
                self.fire_counts[event[1]] += 1
                if event[1] in self._generator_names:
                    self.generator_fires.append(event[1])
                elif self.segments:
                    if not self.segments[-1]:
                        # No ``_oc`` compare: an implicit dispatch segment.
                        self.segments[-1].append((None, []))
                    self.segments[-1][-1][1].append(event[1])
            elif kind == "stall":
                self.stall_sites += 1
            elif kind == "trace":
                if event[1] == "TRF":
                    self.trf_calls += 1
                else:
                    self.trs_calls += 1
            elif kind == "action":
                self.action_calls[event[1]] += 1


def _fire_name(node, names):
    """The transition name of a ``tfN += 1`` statement, else ``None``.

    ``names`` is the module's transition names; a counter index outside
    them reads as ``"tfN"``, which matches no transition.
    """
    counter = _increment(node, _FIRINGS)
    if counter is None:
        return None
    index = int(counter[2:])
    return names[index] if index < len(names) else counter


def _attempts(loop, names):
    """``(name, enable test, fire statements)`` of every attempt in ``loop``.

    An attempt is an ``if``/``elif`` whose body opens with a firing
    counter, or a generator's ``while`` loop whose body holds
    ``if not (test): break`` followed by the fire statements.
    """
    for node in ast.walk(loop):
        if isinstance(node, ast.If) and node.body and _fire_name(node.body[0], names):
            yield _fire_name(node.body[0], names), node.test, node.body
        elif isinstance(node, ast.While):
            for index in range(len(node.body) - 1):
                test = node.body[index]
                name = _fire_name(node.body[index + 1], names)
                if (
                    name
                    and isinstance(test, ast.If)
                    and isinstance(test.test, ast.UnaryOp)
                    and isinstance(test.test.op, ast.Not)
                ):
                    yield name, test.test.operand, node.body[index + 1:]
                    break


def _unwrap_hostcost(test):
    """``test`` with its last conjunct unwrapped from a hostcost guard
    timer, ``hcgN(NS(), guard)``."""
    conjunction = isinstance(test, ast.BoolOp) and isinstance(test.op, ast.And)
    last = test.values[-1] if conjunction else test
    if not (
        isinstance(last, ast.Call)
        and isinstance(last.func, ast.Name)
        and last.func.id.startswith("hcg")
        and len(last.args) == 2
    ):
        return test
    if conjunction:
        return ast.BoolOp(op=ast.And(), values=test.values[:-1] + [last.args[1]])
    return last.args[1]


def _gate_source(transition, svar, ports):
    """SV010: the transition's issue plan as ``(conjuncts, booking)`` source."""
    gate = transition.issue_plan
    if gate is None:
        return [], []
    if gate[0] == "advance":
        stage = svar(gate[1])
        return ["(%s._occupancy <= 1 or (_q := t.prev) is None or _q.seq >= t.seq"
                " or _q.place is None or _q.place.stage is not %s)" % (stage, stage)], []
    conjuncts, booking = ["iss < %d" % gate[2]], ["iss += 1"]
    if gate[1] is not None:
        conjuncts.append("iss%d < %d" % (ports.index(gate[1]), gate[3]))
        booking.append("iss%d += 1" % ports.index(gate[1]))
    conjuncts.append('((_q := t.prev) is None or "issued" in _q.annotations or _q.squashed or _q.seq >= t.seq)')
    booking += ['t.annotations["issued"] = True', "t.prev = None"]
    return conjuncts, booking


def _dumps(sources):
    """The statements of ``sources``, dumped."""
    return [ast.dump(node) for source in sources for node in ast.parse(source).body]


def _conjunct_dumps(test):
    """The top-level conjuncts of an enable test, dumped."""
    conjunction = isinstance(test, ast.BoolOp) and isinstance(test.op, ast.And)
    return [ast.dump(node) for node in (test.values if conjunction else [test])]


def _enable_test_differs(err, name):
    err("SV008", "source:transition %r" % name,
        "enable test differs from the enable rule's reservation, capacity-plan "
        "and guard conjuncts")


def _contains(found, expected):
    width = len(expected)
    return any(found[i:i + width] == expected for i in range(len(found) - width + 1))


def _check_splices(net, schedule, facts, err):
    """SV008/SV010: each enable test is its transition's enable rule written
    out, and each spliced guard/action its template's rendering, verbatim.

    An enable test is, in order, one ``pN.has_reservation()`` per
    reservation input, one ``sK._occupancy <= M`` per pair of the
    transition's capacity plan, the issue plan's gate (SV010, which also
    finds an issue's booking among the fire statements), then the guard:
    its template's rendering where spliced (unwrapped from a hostcost
    timer), a ``gI(...)`` call where called.
    """
    from repro.codegen.runtime import inlined, splice_plan, splice_site
    from repro.describe.templates import render

    rows, _env = splice_plan(net)
    by_name = {t.name: (index, t, row) for index, (t, row) in enumerate(zip(net.transitions, rows))}
    place_index = {id(place): index for index, place in enumerate(schedule.order)}
    stage_index = {id(stage): index for index, stage in enumerate(net.stages.values())}
    ports = sorted({
        t.issue_plan[1] for t in net.transitions
        if t.issue_plan is not None and t.issue_plan[0] == "issue" and t.issue_plan[1] is not None
    })
    for name, test, body in facts.attempts:
        index, transition, (guard, action) = by_name.get(name, (None, None, (None, None)))
        if transition is None:
            continue
        conjuncts = [
            "p%d.has_reservation()" % place_index[id(arc.place)] for arc in transition.reservation_inputs
        ] + ["s%d._occupancy <= %d" % (stage_index[id(stage)], limit) for stage, limit in transition.capacity_plan]
        gate, booking = _gate_source(transition, lambda stage: "s%d" % stage_index[id(stage)], ports)
        guards = []
        if inlined(transition, guard):
            guards.append("(%s)" % render(guard, "splice", splice_site(net, transition, guard)).guard)
        elif transition.guard is not None:
            guards.append("g%d(%s, ctx)" % (index, "None" if transition.is_generator else "t"))
        expected = ast.parse(" and ".join(conjuncts + gate + guards) or "True", mode="eval").body
        test = _unwrap_hostcost(test)
        if not gate:
            if ast.dump(test) != ast.dump(expected):
                _enable_test_differs(err, name)
        else:
            # The gate sits between the capacity pairs and the guard: after
            # the pairs where those are intact, else counted back from the
            # guard.
            expected, found = _conjunct_dumps(expected), _conjunct_dumps(test)
            end = len(found) - len(guards)
            start = len(conjuncts) if found[:len(conjuncts)] == expected[:len(conjuncts)] else end - len(gate)
            if found[start:end] != expected[len(conjuncts):len(conjuncts) + len(gate)] or (
                booking and not _contains([ast.dump(node) for node in body], _dumps(booking))
            ):
                err("SV010", "source:transition %r" % name,
                    "issue gate or booking differs from the transition's issue plan")
            if found[:start] + found[end:] != expected[:len(conjuncts)] + expected[len(conjuncts) + len(gate):]:
                _enable_test_differs(err, name)
        if inlined(transition, action):
            lines = render(action, "splice", splice_site(net, transition, action)).action
            if not _contains([ast.dump(node) for node in body], _dumps(["\n".join(lines)])):
                err("SV008", "source:transition %r" % name,
                    "spliced action differs from the %r template's rendering" % action.key)


def _counter_statistics(name, net):
    """The statistics counter ``name`` adds into, as normalised source."""
    if name in _SCALAR_COUNTERS:
        return ("stats.%s" % name,)
    if name in FRONT_END_COUNTERS:
        return FRONT_END_COUNTERS[name]
    for pattern, keys, holder in (
        (_FIRINGS, [t.name for t in net.transitions], "tf"),
        (_RETIRED, list(net.operation_classes), "rbc"),
    ):
        match = pattern.fullmatch(name)
        if match and int(match.group(1)) < len(keys):
            key = keys[int(match.group(1))]
            return (ast.unparse(ast.parse("%s[%r]" % (holder, key), mode="eval").body),)
    return None


def _is_counter(name):
    return (
        name in _SCALAR_COUNTERS
        or name in FRONT_END_COUNTERS
        or bool(_FIRINGS.fullmatch(name) or _RETIRED.fullmatch(name))
    )


def _check_counters(net, run_cycles, trial, err):
    """SV009: each run-local counter is zeroed before the loop and added
    into each of its statistics exactly once in the ``finally``.

    The counters are the names the cycle loop increments, plus any the
    entry zeroes: the statistics counters and the spliced front end's
    (:data:`~repro.describe.templates.FRONT_END_COUNTERS`).  A ``+=`` of a
    counter in the ``finally`` to any other target is a wrong write-back.
    """
    zeroed = set()
    for node in run_cycles.body:
        if node is trial:
            break
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Constant) and node.value.value == 0:
            zeroed.update(target.id for target in node.targets if isinstance(target, ast.Name))
    used = {
        node.target.id
        for node in ast.walk(trial)
        if isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Name)
    }
    written = {}
    for node in (node for statement in trial.finalbody for node in ast.walk(statement)):
        if isinstance(node, ast.AugAssign) and isinstance(node.value, ast.Name):
            written.setdefault(node.value.id, []).append(ast.unparse(node.target))
    for name in sorted(name for name in (used | zeroed) if _is_counter(name)):
        location = "source:counter %s" % name
        if name not in zeroed:
            err("SV009", location, "run-local counter is not zeroed on entry to run_cycles")
        targets = written.get(name, [])
        statistics = _counter_statistics(name, net)
        if statistics is None:
            err("SV009", location, "run-local counter names no statistic of this net")
        elif len(targets) != len(statistics):
            err("SV009", location,
                "added into a statistic %d times in the finally, expected %d"
                % (len(targets), len(statistics)))
        elif sorted(targets) != sorted(statistics):
            err("SV009", location, "added into the wrong statistic in the finally")


def _expected_plan(net, schedule):
    """Recompute what the emitted module must contain, from net + schedule.

    Returns ``(dispatch, generators, occurrences)``: the nonempty dispatch
    table in schedule order, the generator transition names, and how often
    each transition name must appear as a firing site.
    """
    occurrences = Counter()
    dispatch = []
    for place in schedule.order:
        entries = []
        for opclass in net.operation_classes:
            candidates = schedule.transitions_for(place, opclass)
            if candidates:
                entries.append((opclass, tuple(t.name for t in candidates)))
                for transition in candidates:
                    occurrences[transition.name] += 1
        dispatch.append((place.name, tuple(entries)))
    generators = tuple(t.name for t in schedule.generator_transitions)
    for name in generators:
        occurrences[name] += 1
    return tuple(dispatch), generators, occurrences


def _expected_action_calls(net, occurrences):
    """Expected call sites per called action (``aN``) variable.

    An action spliced into the source has no call site.  Called guards
    need no count here: each is a conjunct of its enable test, which SV008
    compares whole.
    """
    from repro.codegen.runtime import inlined, splice_plan

    rows, _env = splice_plan(net)
    expected = Counter()
    for index, transition in enumerate(net.transitions):
        occ = occurrences.get(transition.name, 0)
        if occ and transition.action is not None and not inlined(transition, rows[index][1]):
            expected["a%d" % index] += occ
    return expected


def _expected_stall_sites(dispatch, implicit):
    """One stall per dispatch chain, plus the per-segment else branch.

    An implicit-dispatch place (``implicit`` holds their names) has one
    chain and no else branch.
    """
    total = 0
    for place, entries in dispatch:
        if entries and place in implicit:
            total += 1
        else:
            total += len(entries) + 1 if entries else 1
    return total


def verify_engine(engine, model=None):
    """AST-verify one generated engine's emitted module.

    Returns a list of findings (empty when the source provably matches the
    generation plan).  ``engine`` must be a
    :class:`repro.codegen.GeneratedEngine`.
    """
    from repro.codegen.cache import emit_trace_categories

    net = engine.net
    model = model or net.name
    findings = []

    def err(rule, location, message):
        findings.append(finding(rule, model, location, message))

    tree = ast.parse(engine.source)
    schedule = engine.schedule
    expected_dispatch, expected_generators, occurrences = _expected_plan(net, schedule)

    # -- SV001: make_run_cycles -> run_cycles -> one loop in a try/finally --
    maker = _find_function(tree, "make_run_cycles")
    if maker is None:
        err("SV001", "source:make_run_cycles",
            "emitted module does not define make_run_cycles")
        return findings
    run_cycles = _find_function(maker, "run_cycles")
    if run_cycles is None:
        err("SV001", "source:make_run_cycles",
            "emitted make_run_cycles does not define the inner run_cycles function")
        return findings
    tries = [node for node in run_cycles.body if isinstance(node, ast.Try)]
    loops = [node for node in tries[0].body if isinstance(node, ast.While)] if len(tries) == 1 else []
    if len(loops) != 1 or not tries[0].finalbody:
        err("SV001", "source:run_cycles",
            "emitted run_cycles has no single cycle loop in a try/finally")
        return findings

    facts = _CycleFacts(
        loops[0], [t.name for t in net.transitions], generator_names=expected_generators
    )

    # -- SV003: place segments appear in schedule order --------------------
    if facts.segment_order != list(range(len(schedule.order))):
        err("SV003", "source:run_cycles",
            "place segments occur as %r, expected the schedule order 0..%d"
            % (facts.segment_order, len(schedule.order) - 1))

    # -- SV002: dispatch branches match the schedule -----------------------
    from repro.codegen.runtime import implicit_dispatch, splice_plan

    implicit = implicit_dispatch(net, splice_plan(net)[0])
    implicit_names = {place.name for place in schedule.order if id(place) in implicit}
    recovered = []
    for index, chains in enumerate(facts.segments):
        place = schedule.order[index] if index < len(schedule.order) else None
        place_name = place.name if place is not None else "?"
        recovered.append((
            place_name,
            tuple(
                (implicit.get(id(place)) if opclass is None else opclass, tuple(fires))
                for opclass, fires in chains
            ),
        ))
    if tuple(recovered) != expected_dispatch:
        for index, expected_entry in enumerate(expected_dispatch):
            got = recovered[index] if index < len(recovered) else None
            if got != expected_entry:
                err("SV002", "source:place %r" % (expected_entry[0],),
                    "emitted dispatch %r disagrees with the schedule's %r"
                    % (got, expected_entry))

    # -- SV004: firing-counter sites ---------------------------------------
    if facts.fire_counts != occurrences:
        for name in sorted(set(facts.fire_counts) | set(occurrences)):
            got, want = facts.fire_counts.get(name, 0), occurrences.get(name, 0)
            if got != want:
                err("SV004", "source:transition %r" % name,
                    "%d firing site(s) emitted, %d expected" % (got, want))
    if facts.generator_fires != list(expected_generators):
        err("SV004", "source:generators",
            "generator firing sites %r disagree with the generator order %r"
            % (facts.generator_fires, list(expected_generators)))
    if facts.misplaced_generators:
        err("SV004", "source:generators",
            "a generator firing site precedes a place segment; the generator "
            "section must trail every dispatch segment")

    # -- SV005: action call sites vs the splice plan ---------------------
    expected_calls = _expected_action_calls(net, occurrences)
    if facts.action_calls != expected_calls:
        for var in sorted(set(facts.action_calls) | set(expected_calls)):
            got, want = facts.action_calls.get(var, 0), expected_calls.get(var, 0)
            if got != want:
                err("SV005", "source:%s" % var,
                    "%d call site(s) emitted, %d required by the plan" % (got, want))

    # -- SV008/SV010: enable tests, issue gates, spliced hook bodies -------
    _check_splices(net, schedule, facts, err)

    # -- SV009: run-local counters zeroed on entry, added back once -------
    _check_counters(net, run_cycles, tries[0], err)

    # -- SV006: trace sites iff tracing was requested ----------------------
    categories = emit_trace_categories(engine.options)
    traced_firing = "firing" in categories
    traced_stall = "stall" in categories
    total_fire_sites = sum(occurrences.values())
    expected_stalls = _expected_stall_sites(expected_dispatch, implicit_names)
    if facts.stall_sites != expected_stalls:
        err("SV004", "source:stalls",
            "%d stall sites emitted, %d expected" % (facts.stall_sites, expected_stalls))
    if traced_firing and facts.trf_calls != total_fire_sites:
        err("SV006", "source:TRF",
            "%d TRF call(s) for %d firing sites" % (facts.trf_calls, total_fire_sites))
    if traced_stall and facts.trs_calls != facts.stall_sites:
        err("SV006", "source:TRS",
            "%d TRS call(s) for %d stall sites" % (facts.trs_calls, facts.stall_sites))
    if not traced_firing and facts.trf_calls:
        err("SV006", "source:TRF",
            "tracing off but %d TRF call(s) emitted" % facts.trf_calls)
    if not traced_stall and facts.trs_calls:
        err("SV006", "source:TRS",
            "tracing off but %d TRS call(s) emitted" % facts.trs_calls)

    return findings


def verify_model(name, trace=False, hostcost=False):
    """Build one registered model on the generated backend and verify its source.

    ``trace=True`` requests firing+stall tracing, so the verifier proves
    the TRF/TRS sites appear; otherwise it proves they are absent.
    ``hostcost=True`` emits with a host-time timer around every spliced
    hook, which the verifier unwraps (SV008).
    """
    from repro.core.engine import EngineOptions
    from repro.processors.registry import build_processor

    categories = (("firing", "stall") if trace else ()) + (("hostcost",) if hostcost else ())
    option_kwargs = {"backend": "generated"}
    if categories:
        option_kwargs["trace"] = {"categories": categories, "capacity": 64}
    processor = build_processor(name, engine_options=EngineOptions(**option_kwargs))
    return verify_engine(processor.engine, model=name)


def _capacity_rule_allows(transition):
    """The output-capacity clause of the enable rule, on the live occupancies.

    Every stage the firing deposits into — the instruction token's target
    and each reservation output — must have room for what it receives,
    less the slot the token frees when it leaves a place of the same
    stage (a generator has no token), and each capacity stage for one
    more token.
    """
    source_stage = None if transition.is_generator else transition.source.stage
    needed = {}
    target = transition.target
    if target is not None and not target.is_end:
        needed[target.stage] = needed.get(target.stage, 0) + 1
    for arc in transition.reservation_outputs:
        place = arc.place
        if place is not None and not place.is_end:
            needed[place.stage] = needed.get(place.stage, 0) + arc.count
    for stage, count in needed.items():
        departing = 1 if stage is source_stage else 0
        if not stage.has_room(count - departing):
            return False
    return all(stage.has_room() for stage in transition.capacity_stages)


def _rule_limits(net, transition):
    """``{stage name: max_occupancy}`` re-derived from the enable rule.

    Each capacity-limited stage is filled one token at a time, the others
    empty, up to the last occupancy the rule still allows; a stage the
    rule never stops below its capacity is left out.  ``None`` when the
    rule refuses with every stage empty.
    """
    if not _capacity_rule_allows(transition):
        return None
    limits = {}
    for stage in net.stages.values():
        if stage.capacity is None:
            continue
        occupancy = 0
        while occupancy < stage.capacity:
            stage._occupancy = occupancy + 1
            if not _capacity_rule_allows(transition):
                break
            occupancy += 1
        stage._occupancy = 0
        if occupancy < stage.capacity:
            limits[stage.name] = occupancy
    return limits


def _plan_limits(transition):
    """``{stage name: max_occupancy}`` of the transition's static capacity
    plan, in the form of :func:`_rule_limits`."""
    limits = {}
    for stage, limit in transition.capacity_plan:
        if stage.capacity is None or limit < stage.capacity:
            limits[stage.name] = min(limit, limits.get(stage.name, limit))
    if any(limit < 0 for limit in limits.values()):
        return None
    return limits


def verify_backend(name, backend):
    """Verify one backend: SV101 for interpreted, the AST pass otherwise."""
    if backend != "interpreted":
        return verify_model(name)
    from repro.core.scheduler import place_evaluation_order
    from repro.processors.registry import build_processor

    engine = build_processor(name, backend=backend).engine
    net = engine.net
    findings = []
    fresh = [place.name for place in place_evaluation_order(net)]
    cached = [place.name for place in engine.schedule.order]
    if cached != fresh:
        findings.append(finding(
            "SV101", name, "schedule:order",
            "cached schedule order %r disagrees with a fresh derivation %r"
            % (cached, fresh),
        ))
    for place in engine.schedule.order:
        for opclass in net.operation_classes:
            cached_names = [
                t.name for t in engine.schedule.transitions_for(place, opclass)
            ]
            subnet = net.subnet_for(opclass)
            manual = sorted(
                (
                    t for t in net.transitions
                    if t.source is place and t.subnet is subnet
                ),
                key=lambda t: t.priority,
            )
            if cached_names != [t.name for t in manual]:
                findings.append(finding(
                    "SV101", name,
                    "schedule:place %r/%s" % (place.name, opclass),
                    "dispatch %r disagrees with a fresh search %r"
                    % (cached_names, [t.name for t in manual]),
                ))
    # The processor is fresh, so every stage is empty for the probes.
    for transition in net.transitions:
        planned, derived = _plan_limits(transition), _rule_limits(net, transition)
        if planned != derived:
            findings.append(finding(
                "SV101", name, "schedule:transition %r" % transition.name,
                "capacity plan %r disagrees with the enable rule's limits %r"
                % (planned, derived),
            ))
    return findings
