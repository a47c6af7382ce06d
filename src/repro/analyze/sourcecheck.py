"""Emitted-source verification: prove the generated module matches its plan.

The generated backend ``exec``s emitted Python and trusts it to
implement the generation plan.  This pass removes the trust: it parses the
emitted module with :mod:`ast` and re-derives, from the *text*, the plan
the module actually implements — the place-segment order, the per-place
operation-class dispatch branches, every firing-counter site, every
issue/advance gate call, every ``TRF``/``TRS`` trace site — and compares
each against an independent recomputation from the net and its static
schedule (:func:`repro.codegen.runtime.guard_plan` /
:func:`~repro.codegen.runtime.action_plan` and
:meth:`~repro.core.scheduler.StaticSchedule.transitions_for`).

``verify_backend`` extends the idea to the interpreted reference: its
(possibly cache-hydrated) schedule is checked against a fresh derivation.
"""

from __future__ import annotations

import ast
from collections import Counter

from repro.analyze.findings import finding


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


class _CycleFacts:
    """Everything the verifier reads out of one emitted cycle body."""

    def __init__(self, body, generator_names=()):
        #: Place indices in segment order (one per ``_t = pN.tokens``).
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
        self.gate_calls = Counter()  # (var, attr or "") -> count
        self._generator_names = frozenset(generator_names)

        events = []
        for node in ast.walk(body):
            event = self._classify(node)
            if event is not None:
                events.append((node.lineno, node.col_offset, event))
        events.sort(key=lambda item: (item[0], item[1]))
        self._fold(event for _line, _col, event in events)

    @staticmethod
    def _classify(node):
        if isinstance(node, ast.Assign):
            # `_t = pN.tokens` marks the start of one place segment.
            if (
                len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and node.targets[0].id == "_t"
                and isinstance(node.value, ast.Attribute)
                and node.value.attr == "tokens"
                and isinstance(node.value.value, ast.Name)
                and node.value.value.id.startswith("p")
            ):
                return ("place", int(node.value.value.id[1:]))
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
        elif isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Add):
            target = node.target
            # `tf['name'] += 1` is the firing counter of one attempt.
            if (
                isinstance(target, ast.Subscript)
                and isinstance(target.value, ast.Name)
                and target.value.id == "tf"
                and isinstance(target.slice, ast.Constant)
            ):
                return ("fire", target.slice.value)
            # `stats.stalls += 1` is one stall site.
            if (
                isinstance(target, ast.Attribute)
                and target.attr == "stalls"
                and isinstance(target.value, ast.Name)
                and target.value.id == "stats"
            ):
                return ("stall",)
        elif isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name):
                if func.id in ("TRF", "TRS"):
                    return ("trace", func.id)
                if func.id[:1] in ("g", "a") and func.id[1:].isdigit():
                    return ("gate", func.id, "")
            elif (
                isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id[:1] == "c"
                and func.value.id[1:].isdigit()
                and func.attr in ("may_issue", "may_advance", "note_issue")
            ):
                return ("gate", func.value.id, func.attr)
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
                elif self.segments and self.segments[-1]:
                    self.segments[-1][-1][1].append(event[1])
            elif kind == "stall":
                self.stall_sites += 1
            elif kind == "trace":
                if event[1] == "TRF":
                    self.trf_calls += 1
                else:
                    self.trs_calls += 1
            elif kind == "gate":
                self.gate_calls[(event[1], event[2])] += 1


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


def _expected_gates(net, occurrences):
    """Per-variable expected gate/guard/action call-site counts."""
    from repro.codegen.runtime import action_plan, guard_plan

    expected = Counter()
    for index, transition in enumerate(net.transitions):
        occ = occurrences.get(transition.name, 0)
        if not occ:
            continue
        gkind, gbase, _gcontrol, _gport, _gstage = guard_plan(transition)
        if gkind == "issue":
            expected[("c%d" % index, "may_issue")] += occ
        elif gkind == "advance":
            expected[("c%d" % index, "may_advance")] += occ
        if gkind == "plain" or (gkind in ("issue", "advance") and gbase is not None):
            expected[("g%d" % index, "")] += occ
        akind, abase, _acontrol, _aport = action_plan(transition)
        if akind == "issue":
            expected[("c%d" % index, "note_issue")] += occ
        if akind == "plain" or (akind == "issue" and abase is not None):
            expected[("a%d" % index, "")] += occ
    return expected


def _expected_stall_sites(dispatch):
    """One stall per dispatch chain, plus the per-segment else branch."""
    total = 0
    for _place, entries in dispatch:
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
    loops = [node for node in run_cycles.body if isinstance(node, ast.While)]
    if len(loops) != 1:
        err("SV001", "source:run_cycles",
            "emitted run_cycles has %d top-level cycle loops, expected exactly 1"
            % len(loops))
        return findings

    facts = _CycleFacts(loops[0], generator_names=expected_generators)

    # -- SV003: place segments appear in schedule order --------------------
    if facts.segment_order != list(range(len(schedule.order))):
        err("SV003", "source:run_cycles",
            "place segments occur as %r, expected the schedule order 0..%d"
            % (facts.segment_order, len(schedule.order) - 1))

    # -- SV002: dispatch branches match the schedule -----------------------
    recovered = []
    for index, chains in enumerate(facts.segments):
        place_name = (
            expected_dispatch[index][0] if index < len(expected_dispatch) else "?"
        )
        recovered.append((
            place_name,
            tuple((opclass, tuple(fires)) for opclass, fires in chains),
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

    # -- SV005: gate call sites vs the guard/action plan -------------------
    expected_gates = _expected_gates(net, occurrences)
    if facts.gate_calls != expected_gates:
        for key in sorted(set(facts.gate_calls) | set(expected_gates)):
            got, want = facts.gate_calls.get(key, 0), expected_gates.get(key, 0)
            if got != want:
                var, attr = key
                label = "%s.%s" % (var, attr) if attr else var
                err("SV005", "source:%s" % label,
                    "%d call site(s) emitted, %d required by the plan" % (got, want))

    # -- SV006: trace sites iff tracing was requested ----------------------
    categories = emit_trace_categories(options)
    traced_firing = "firing" in categories
    traced_stall = "stall" in categories
    total_fire_sites = sum(occurrences.values())
    expected_stalls = _expected_stall_sites(expected_dispatch)
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
        from repro.codegen.runtime import guard_plan, transition_capacity_shape

        emitted = {
            name: transition
            for transition in net.transitions
            for name in (transition.name,)
            if occurrences.get(name)
        }
        kinds = Counter(guard_plan(t)[0] for t in emitted.values())
        shapes = Counter(transition_capacity_shape(t)[0] for t in emitted.values())
        recomputed = {
            "transitions_compiled": len(set(facts.fire_counts)),
            "places_compiled": len(facts.segments),
            "nonempty_dispatch_entries": sum(
                len(entries) for _place, entries in expected_dispatch
            ),
            "dispatch_entries": len(schedule.order) * len(net.operation_classes),
            "guard_free_transitions": kinds.get("none", 0),
            "issue_gated_transitions": kinds.get("issue", 0),
            "advance_gated_transitions": kinds.get("advance", 0),
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
    return findings
