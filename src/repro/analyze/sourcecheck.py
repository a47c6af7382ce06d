"""Emitted-source verification: prove the generated module matches its plan.

The generated backend ``exec``s emitted Python and trusts it to
implement the generation plan.  This pass removes the trust: it parses the
emitted module with :mod:`ast` and re-derives, from the *text*, the plan
the module actually implements — the place-segment order, the per-place
operation-class dispatch branches, every firing-counter site, every
called guard and action, every ``TRF``/``TRS`` trace site, every spliced
hook body, every run-local counter's zeroing and write-back — and
compares each against an independent recomputation from
the net and its static schedule (:func:`repro.codegen.runtime.splice_plan`
and :meth:`~repro.core.scheduler.StaticSchedule.transitions_for`).  A spliced
guard or action is re-rendered from the same hook template
(:func:`repro.describe.templates.render`) and must appear at its site
statement for statement (SV008).

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


def _module_constants(tree):
    """Top-level literal ``NAME = <literal>`` assignments of the module."""
    constants = {}
    for node in tree.body:
        if (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
        ):
            try:
                constants[node.targets[0].id] = ast.literal_eval(node.value)
            except ValueError:
                continue
    return constants


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
        self.hook_calls = Counter()  # gN / aN -> call sites
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
                if func.id[:1] in ("g", "a") and func.id[1:].isdigit():
                    return ("hook", func.id)
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
            elif kind == "hook":
                self.hook_calls[event[1]] += 1


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


def _spliced_guard(test):
    """The enable test's last conjunct, unwrapped from a hostcost timer."""
    last = test.values[-1] if isinstance(test, ast.BoolOp) and isinstance(test.op, ast.And) else test
    if (
        isinstance(last, ast.Call)
        and isinstance(last.func, ast.Name)
        and last.func.id.startswith("hcg")
        and len(last.args) == 2
    ):
        return last.args[1]
    return last


def _check_splices(net, facts, err):
    """SV008: each spliced guard/action is its template's rendering, verbatim."""
    from repro.codegen.runtime import inlined, splice_plan, splice_site
    from repro.describe.templates import render

    rows, _env = splice_plan(net)
    by_name = {t.name: (t, row) for t, row in zip(net.transitions, rows)}
    for name, test, body in facts.attempts:
        transition, (guard, action) = by_name.get(name, (None, (None, None)))
        if transition is None:
            continue
        if inlined(transition, guard):
            rendering = render(guard, "splice", splice_site(net, transition, guard))
            expected = ast.dump(ast.parse(rendering.guard, mode="eval").body)
            found = _spliced_guard(test)
            if ast.dump(test) != expected and ast.dump(found) != expected:
                err("SV008", "source:transition %r" % name,
                    "spliced guard differs from the %r template's rendering" % guard.key)
        if inlined(transition, action):
            lines = render(action, "splice", splice_site(net, transition, action)).action
            expected = [ast.dump(node) for node in ast.parse("\n".join(lines)).body]
            found = [ast.dump(node) for node in body]
            width = len(expected)
            if not any(found[i:i + width] == expected for i in range(len(found) - width + 1)):
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


def _expected_hook_calls(net, occurrences):
    """Expected call sites per guard (``gN``) and action (``aN``) variable.

    A hook spliced into the source has no call site.
    """
    from repro.codegen.runtime import inlined, splice_plan

    rows, _env = splice_plan(net)
    expected = Counter()
    for index, transition in enumerate(net.transitions):
        occ = occurrences.get(transition.name, 0)
        if not occ:
            continue
        if transition.guard is not None and not inlined(transition, rows[index][0]):
            expected["g%d" % index] += occ
        if transition.action is not None and not inlined(transition, rows[index][1]):
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
    from repro.codegen.cache import codegen_key, emit_trace_categories
    from repro.codegen.runtime import structure_digest

    net = engine.net
    model = model or net.name
    options = engine.options
    source = engine.source
    module = engine.module
    findings = []

    def err(rule, location, message):
        findings.append(finding(rule, model, location, message))

    tree = ast.parse(source)
    constants = _module_constants(tree)

    # -- SV001: header constants vs the live net ---------------------------
    schedule = engine.schedule
    expected_constants = {
        "MODEL": net.name,
        "SPEC_FINGERPRINT": getattr(net, "spec_fingerprint", None),
        "STRUCTURE_DIGEST": structure_digest(net),
        "PLACES": tuple(place.name for place in schedule.order),
        "STAGES": tuple(net.stages),
        "TRANSITIONS": tuple(t.name for t in net.transitions),
        "CODEGEN_KEY": codegen_key(net, options),
    }
    for name, expected in expected_constants.items():
        if name not in constants:
            err("SV001", "source:%s" % name, "module constant missing from source")
            continue
        if constants[name] != expected:
            err("SV001", "source:%s" % name,
                "source declares %r but the net derives %r" % (constants[name], expected))
        if getattr(module, name, None) != expected:
            err("SV001", "module:%s" % name,
                "executed module attribute %r disagrees with the net's %r"
                % (getattr(module, name, None), expected))

    expected_dispatch, expected_generators, occurrences = _expected_plan(net, schedule)
    declared_dispatch = constants.get("DISPATCH")
    if declared_dispatch != expected_dispatch:
        err("SV001", "source:DISPATCH",
            "declared dispatch table disagrees with the static schedule")
    if constants.get("GENERATORS") != expected_generators:
        err("SV001", "source:GENERATORS",
            "declared generators %r disagree with the schedule's %r"
            % (constants.get("GENERATORS"), expected_generators))

    # -- locate the cycle body ---------------------------------------------
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

    # -- SV005: guard/action call sites vs the splice plan ----------------
    expected_calls = _expected_hook_calls(net, occurrences)
    if facts.hook_calls != expected_calls:
        for var in sorted(set(facts.hook_calls) | set(expected_calls)):
            got, want = facts.hook_calls.get(var, 0), expected_calls.get(var, 0)
            if got != want:
                err("SV005", "source:%s" % var,
                    "%d call site(s) emitted, %d required by the plan" % (got, want))

    # -- SV008: spliced hook bodies are their templates' renderings -------
    _check_splices(net, facts, err)

    # -- SV009: run-local counters zeroed on entry, added back once -------
    _check_counters(net, run_cycles, tries[0], err)

    # -- SV006: trace sites iff tracing was requested ----------------------
    categories = emit_trace_categories(options)
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
    if categories and tuple(constants.get("TRACE_CATEGORIES", ())) != categories:
        err("SV006", "source:TRACE_CATEGORIES",
            "module declares %r, options request %r"
            % (constants.get("TRACE_CATEGORIES"), categories))
    if not categories and "TRACE_CATEGORIES" in constants:
        err("SV006", "source:TRACE_CATEGORIES",
            "tracing off but the module declares TRACE_CATEGORIES")

    # -- SV007: the embedded EMIT_REPORT matches the recovered counts ------
    report = constants.get("EMIT_REPORT")
    if not isinstance(report, dict):
        err("SV007", "source:EMIT_REPORT", "missing or non-dict EMIT_REPORT")
    else:
        from repro.codegen.runtime import transition_capacity_shape

        emitted = [t for t in net.transitions if occurrences.get(t.name)]
        shapes = Counter(transition_capacity_shape(t)[0] for t in emitted)
        recomputed = {
            "transitions_compiled": len(set(facts.fire_counts)),
            "places_compiled": len(facts.segments),
            "nonempty_dispatch_entries": sum(
                len(entries) for _place, entries in expected_dispatch
            ),
            "dispatch_entries": len(schedule.order) * len(net.operation_classes),
            "guard_free_transitions": sum(t.guard is None for t in emitted),
            "capacity_free_transitions": shapes.get("free", 0),
            "single_stage_capacity_transitions": shapes.get("single", 0),
        }
        for key, want in recomputed.items():
            if report.get(key) != want:
                err("SV007", "source:EMIT_REPORT[%s]" % key,
                    "report says %r, source recovers %r" % (report.get(key), want))

    return findings


def verify_model(name, trace=False):
    """Build one registered model on the generated backend and verify its source.

    ``trace=True`` requests firing+stall tracing, so the verifier proves
    the TRF/TRS sites appear; otherwise it proves they are absent.
    """
    from repro.core.engine import EngineOptions
    from repro.processors.registry import build_processor

    option_kwargs = {"backend": "generated"}
    if trace:
        option_kwargs["trace"] = {"categories": ("firing", "stall"), "capacity": 64}
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
