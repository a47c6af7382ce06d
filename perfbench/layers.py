"""Per-layer host-time attribution for the traced benchmark run.

:class:`LayerTracer` times calls into each layer's public functions from
outside the program: it wraps class methods and properties in place,
rebinds helpers that other modules imported by name, and supplies an
``ArmSemantics`` subclass (:func:`tracing_semantics`) whose ``register()``
wraps every semantic hook as it is installed.  Nothing inside ``repro`` is
edited; :meth:`LayerTracer.uninstall` restores every original object.

Self time comes from a span stack.  Each wrapped call pushes a child-time
accumulator; on return its self time is its duration minus the time its
nested wrapped calls took, and its duration is added to the enclosing
span's accumulator.  Nested layers are therefore never counted twice, and
the self times of all spans sum exactly to the time covered by outermost
spans.  Host time outside every span (the engine loop, the emitted step,
the scheduler and the wrappers' own bookkeeping) is the engine's share.

Spans are kept in memory: aggregated per wrapped function, plus the first
``raw_limit`` individual spans with their nesting depth.  :meth:`dump`
writes both out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import time

from repro.core.decoder import InstructionDecoder
from repro.core.operands import Const, RegRef
from repro.core.token import InstructionToken, Token
from repro.describe.semantics import ArmSemantics
from repro.describe.substrate import IssueControl
from repro.memory.branch_predictor import BranchPredictor, BranchTargetBuffer
from repro.memory.cache import Cache
from repro.memory.memory_system import MemorySystem

# By module path: the package attribute ``repro.describe.elaborate`` is the
# function that shadows its module.
describe_elaborate = importlib.import_module("repro.describe.elaborate")
describe_semantics = importlib.import_module("repro.describe.semantics")
describe_substrate = importlib.import_module("repro.describe.substrate")

#: Operation classes the semantic hooks are grouped by (hook names are
#: ``"<class>.<step>"``; the fetch transition is its own group).
SEMANTIC_CLASSES = ("fetch", "alu", "mul", "mem", "memm", "branch", "system")

#: ``(class, methods, layer)``: methods wrapped in place on the class.
CLASS_METHODS = (
    (InstructionToken, ("__getattr__", "register_operands", "release_reservations"), "token"),
    (
        RegRef,
        ("can_read", "read", "can_write", "reserve_write", "writeback", "release"),
        "operands.regref",
    ),
    (Const, ("can_read", "read", "can_write", "reserve_write", "writeback"), "operands.const"),
    (InstructionDecoder, ("decode_word",), "decoder"),
    (MemorySystem, ("instruction_delay", "data_delay"), "memory.delay"),
    (MemorySystem, ("read_word", "write_word", "read_byte", "write_byte"), "memory.functional"),
    (Cache, ("access",), "memory.cache"),
    (BranchTargetBuffer, ("lookup", "update", "record_outcome"), "predictor"),
    (BranchPredictor, ("record",), "predictor"),
    (IssueControl, ("may_issue", "note_issue", "may_advance", "note_fetch"), "semantics.issue_gate"),
)

#: ``(class, properties, layer)``: getter and setter wrapped.
CLASS_PROPERTIES = (
    (Token, ("delay",), "token"),
    (RegRef, ("value", "has_value", "internal_value", "reserved"), "operands.regref"),
    (Const, ("value", "has_value"), "operands.const"),
)

#: ``(module, names, layer)``: helpers rebound in the module that imported
#: them by name, so its call sites resolve to the wrapper.
MODULE_FUNCTIONS = (
    (
        describe_semantics,
        ("compute_alu", "compute_multiply", "compute_memory_address"),
        "substrate.compute",
    ),
    (
        describe_semantics,
        ("operand_ready", "operands_ready", "token_flags_ready", "condition_holds"),
        "substrate.operand_check",
    ),
    (
        describe_substrate,
        ("alu_operate", "apply_shift", "multiply", "multiply_early_termination_cycles"),
        "isa.alu",
    ),
    (describe_substrate, ("condition_passes",), "isa.conditions"),
    # Captured by make_decoder(), so only processors built after install()
    # see the wrapper.
    (describe_substrate, ("isa_decode",), "isa.decode"),
)

#: Set-up phases, timed during the set-up repetitions.
SETUP_FUNCTIONS = (
    (describe_elaborate, ("elaborate_net",), "setup.elaborate"),
    (describe_substrate, ("generate_simulator",), "setup.generate"),
)


class Span:
    """Aggregate of every call to one wrapped function."""

    __slots__ = ("name", "layer", "calls", "passed", "total_ns", "self_ns")

    def __init__(self, name, layer):
        self.name = name
        self.layer = layer
        self.calls = 0
        self.passed = 0
        self.total_ns = 0
        self.self_ns = 0

    def as_dict(self):
        return {slot: getattr(self, slot) for slot in self.__slots__}


class LayerTracer:
    """Span-stack timer over wrapped layer entry points (see module doc)."""

    def __init__(self, raw_limit=20_000):
        self.spans = {}
        self.covered_ns = 0
        self.raw = []
        self.raw_limit = raw_limit
        self._stack = []
        self._undo = []

    # -- wrapping -----------------------------------------------------------
    def span(self, name, layer):
        span = self.spans.get(name)
        if span is None:
            span = self.spans[name] = Span(name, layer)
        return span

    def wrap(self, fn, name, layer, guard=False):
        """A timed stand-in for ``fn``; ``guard`` also counts truthy results."""
        span = self.span(name, layer)
        stack = self._stack
        raw = self.raw
        raw_limit = self.raw_limit
        clock = time.perf_counter_ns
        tracer = self

        def close(start):
            elapsed = clock() - start
            child = stack.pop()
            span.calls += 1
            span.total_ns += elapsed
            span.self_ns += elapsed - child
            if stack:
                stack[-1] += elapsed
            else:
                tracer.covered_ns += elapsed
            if len(raw) < raw_limit:
                raw.append((name, start, elapsed, len(stack)))

        if guard:

            def timed(*args, **kwargs):
                stack.append(0)
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    close(start)
                if result:
                    span.passed += 1
                return result

        else:

            def timed(*args, **kwargs):
                stack.append(0)
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    close(start)

        # Keeps the gate markers (issue_gate, base_guard, ...) the codegen
        # backend reads off multi-issue guards and actions.
        return functools.update_wrapper(timed, fn)

    def _patch(self, owner, attr, replacement):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def patch_function(self, owner, attr, layer):
        original = vars(owner)[attr]
        name = "%s:%s.%s" % (layer, getattr(owner, "__name__", owner), attr)
        self._patch(owner, attr, self.wrap(original, name, layer))

    def patch_property(self, cls, attr, layer):
        prop = vars(cls)[attr]
        name = "%s:%s.%s" % (layer, cls.__name__, attr)
        fget = self.wrap(prop.fget, name, layer)
        fset = self.wrap(prop.fset, name + ".set", layer) if prop.fset else None
        self._patch(cls, attr, property(fget, fset, prop.fdel, prop.__doc__))

    def install(self):
        """Wrap every layer entry point of the simulation proper."""
        for cls, methods, layer in CLASS_METHODS:
            for method in methods:
                self.patch_function(cls, method, layer)
        for cls, properties, layer in CLASS_PROPERTIES:
            for prop in properties:
                self.patch_property(cls, prop, layer)
        for module, names, layer in MODULE_FUNCTIONS:
            for name in names:
                self.patch_function(module, name, layer)

    def install_setup(self):
        """Wrap the set-up phases only (elaboration and generation)."""
        for module, names, layer in SETUP_FUNCTIONS:
            for name in names:
                self.patch_function(module, name, layer)

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *_exc):
        self.uninstall()

    # -- bookkeeping --------------------------------------------------------
    def reset_counts(self):
        """Zero every aggregate (spans recorded while building processors)."""
        for span in self.spans.values():
            span.calls = span.passed = span.total_ns = span.self_ns = 0
        self.covered_ns = 0
        self.raw.clear()

    def layer_totals(self, prefix):
        """``(calls, passed, total_ns, self_ns)`` over layers under ``prefix``."""
        calls = passed = total = own = 0
        for span in self.spans.values():
            if span.layer == prefix or span.layer.startswith(prefix + "."):
                calls += span.calls
                passed += span.passed
                total += span.total_ns
                own += span.self_ns
        return calls, passed, total, own

    def span_totals(self, name_prefix):
        """``(calls, total_ns)`` over spans whose name starts with ``name_prefix``."""
        calls = total = 0
        for span in self.spans.values():
            if span.name.startswith(name_prefix):
                calls += span.calls
                total += span.total_ns
        return calls, total

    def dump(self, path, meta):
        """Write the aggregated spans and the raw sample as JSON."""
        payload = {
            "meta": meta,
            "covered_ns": self.covered_ns,
            "spans": sorted(
                (s.as_dict() for s in self.spans.values() if s.calls),
                key=lambda s: -s["self_ns"],
            ),
            "raw_fields": ["name", "start_ns", "duration_ns", "depth"],
            "raw": self.raw,
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)


def tracing_semantics(tracer):
    """An ``ArmSemantics`` subclass whose hooks report to ``tracer``.

    Pass it to ``repro.describe.elaborate(..., semantics_class=...)``.  Hook
    spans land in layer ``semantics.<class>.guard`` or ``.action``; the
    multi-issue gates in ``semantics.issue_gate``.
    """

    def hook_layer(hook_name, kind):
        return "semantics.%s.%s" % (hook_name.split(".", 1)[0], kind)

    class TracingSemantics(ArmSemantics):
        def register(self, name, guard=None, action=None):
            if guard is not None:
                layer = hook_layer(name, "guard")
                guard = tracer.wrap(guard, "%s:%s" % (layer, name), layer, guard=True)
            if action is not None:
                layer = hook_layer(name, "action")
                action = tracer.wrap(action, "%s:%s" % (layer, name), layer)
            super().register(name, guard, action)

        def fetch_hook(self, fetch_spec):
            guard, action = super().fetch_hook(fetch_spec)
            return (
                tracer.wrap(guard, "semantics.fetch.guard:fetch", "semantics.fetch.guard", guard=True),
                tracer.wrap(action, "semantics.fetch.action:fetch", "semantics.fetch.action"),
            )

        def issue_gate(self, guard, action, port=None):
            guard, action = super().issue_gate(guard, action, port)
            layer = "semantics.issue_gate"
            return (
                tracer.wrap(guard, layer + ":issue_gate.guard", layer),
                tracer.wrap(action, layer + ":issue_gate.action", layer),
            )

        def advance_gate(self, guard, source_stage):
            layer = "semantics.issue_gate"
            return tracer.wrap(
                super().advance_gate(guard, source_stage), layer + ":advance_gate", layer
            )

    return TracingSemantics
