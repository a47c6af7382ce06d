"""Cycle-accurate simulator generation from an RCPN model.

"Generation" in the paper means deriving, before simulation starts, all the
structures that make the simulation loop fast: the per-(place, operation
class) sorted transition lists, the reverse-topological place evaluation
order and the set of feedback places that need two-list storage
(Section 4).  :func:`generate_simulator` performs that derivation and
returns a ready-to-run engine for the backend selected in
:class:`~repro.core.engine.EngineOptions`:

* ``backend="interpreted"`` — the derived structures are consulted by the
  generic :class:`~repro.core.engine.SimulationEngine` loop each cycle;
* ``backend="generated"`` — the structures are emitted as Python *source*
  by :mod:`repro.codegen`, ``exec``'d into a module (memoised in-process
  under the net's structure digest) and executed by
  :class:`~repro.codegen.GeneratedEngine` (the paper's generated-simulator
  fast path).

:class:`GenerationReport` exposes the derived structures so tests and
benchmarks can inspect them; for the generated backend it also says where
the emitted module came from.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.engine import EngineOptions, SimulationEngine


@dataclass
class GenerationReport:
    """What the generator derived from the model (for inspection/reporting)."""

    model_name: str
    backend: str = "interpreted"
    place_order: list = field(default_factory=list)
    two_list_places: list = field(default_factory=list)
    dispatch_entries: int = 0
    nonempty_dispatch_entries: int = 0
    generator_transitions: list = field(default_factory=list)
    #: The pipeline spec the net was elaborated from (None for hand-built
    #: nets).
    spec: object = field(default=None, repr=False)
    #: Whether the static schedule came from the structure-keyed memo:
    #: "hit" or "miss", on every net.
    schedule_cache: str = "miss"
    #: Where the generated backend's module came from: "emitted" or
    #: "memory"; None on the interpreted backend.
    codegen_cache: str = None
    #: Cache-hierarchy geometry, level by level (None when the net carries
    #: no memory unit — e.g. the hand-built test nets).
    memory_hierarchy: list = None

    @property
    def spec_fingerprint(self):
        """Content hash of the pipeline spec (None for hand-built nets),
        asked of the spec when read; reported only, no cache keys on it."""
        return None if self.spec is None else self.spec.fingerprint()

    def summary(self):
        report = {
            "model": self.model_name,
            "backend": self.backend,
            "places_in_order": len(self.place_order),
            "two_list_places": len(self.two_list_places),
            "dispatch_entries": self.dispatch_entries,
            "nonempty_dispatch_entries": self.nonempty_dispatch_entries,
            "generator_transitions": len(self.generator_transitions),
            "schedule_cache": self.schedule_cache,
            "codegen_cache": self.codegen_cache,
        }
        if self.spec is not None:
            report["spec_fingerprint"] = self.spec_fingerprint
        if self.memory_hierarchy is not None:
            report["memory_hierarchy"] = list(self.memory_hierarchy)
        return report


def generate_simulator(net, options=None):
    """Generate a cycle-accurate simulator for ``net``.

    Returns ``(engine, report)``: the engine is ready to run, the report
    describes the statically derived structures.  The engine class is
    selected by ``options.backend`` (one of
    :data:`~repro.core.engine.ENGINE_BACKENDS`).
    """
    options = options or EngineOptions()
    if options.backend == "generated":
        # Imported lazily: repro.codegen builds on repro.core.engine.
        from repro.codegen import GeneratedEngine

        engine = GeneratedEngine(net, options=options)
    else:
        engine = SimulationEngine(net, options=options)
    schedule = engine.schedule
    dispatch = schedule.sorted_transitions
    memory = getattr(net, "units", {}).get("memory")
    describe_hierarchy = getattr(memory, "describe_hierarchy", None)
    report = GenerationReport(
        model_name=net.name,
        backend=engine.backend,
        place_order=[place.name for place in schedule.order],
        two_list_places=[place.name for place in schedule.two_list_places],
        dispatch_entries=len(dispatch),
        nonempty_dispatch_entries=sum(1 for value in dispatch.values() if value),
        generator_transitions=[t.name for t in schedule.generator_transitions],
        spec=getattr(net, "spec", None),
        schedule_cache="hit" if schedule.from_cache else "miss",
        codegen_cache=engine.codegen_status if options.backend == "generated" else None,
        memory_hierarchy=describe_hierarchy() if callable(describe_hierarchy) else None,
    )
    return engine, report
