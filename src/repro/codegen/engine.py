"""The generated (source-level) cycle-accurate engine.

:class:`GeneratedEngine` is the run-time shell around an emitted module
(:mod:`repro.codegen.emit`): construction obtains the module — from the
in-process memo or a fresh emission (:mod:`repro.codegen.cache`) — binds
it to this net's live objects
(:func:`repro.codegen.runtime.build_runtime`) and keeps the resulting
``step(cycle, stats)`` function.  Everything outside the per-cycle hot
path — run loop, halt/drain detection, flush and emission services — is
inherited from :class:`~repro.core.engine.SimulationEngine`, and the
statistics are bit-identical to the interpreted reference; only
wall-clock time may differ.

The emitted step function is straight-line code over preallocated
objects, so no active-place worklist is needed: an idle place costs one
attribute load and a truth test.  Reservation tokens are pooled (the
emitted fire bodies draw from ``_reservation_pool``).

Inspecting the generated code::

    engine = processor.engine          # backend="generated"
    print(engine.source)               # the emitted Python module
"""

from __future__ import annotations

from repro.core.engine import SimulationEngine

from repro.codegen.cache import CODEGEN_CACHE, codegen_key, exec_module
from repro.codegen.emit import emit_module_source
from repro.codegen.runtime import build_runtime


class GeneratedEngine(SimulationEngine):
    """Cycle-accurate simulator running the emitted-source form of a model.

    ``cache`` defaults to the process-wide
    :data:`~repro.codegen.cache.CODEGEN_CACHE`; tests pass their own
    :class:`~repro.codegen.cache.ModuleCache` to observe cold/warm
    behaviour in isolation.  Nets without a spec fingerprint (hand-built
    test nets) are emitted fresh each time and never touch the memo.
    """

    backend = "generated"

    def __init__(self, net, options=None, cache=None):
        super().__init__(net, options=options)
        # Captured by the emitted fire bodies; mutate in place, never rebind.
        self._reservation_pool = []
        self._cache = CODEGEN_CACHE if cache is None else cache
        self.codegen_status = "uncached"

        key = codegen_key(net, self.options)

        def emit():
            source, _report = emit_module_source(net, self.schedule, self.options, key=key)
            return source

        if key is None:
            # Hand-built nets carry no fingerprint: emit fresh, skip the memo.
            module = exec_module(emit(), "repro_codegen_uncached")
        else:
            module, self.codegen_status = self._cache.module_for(key, emit)
        self.module = module
        self.source = module.__source__
        self._step_fn = module.make_step(build_runtime(self))

    # -- engine-internal services overridden for the generated backend ------
    def _recycle_reservation(self, token):
        # Flushed reservation tokens go back to the free list.
        self._reservation_pool.append(token)

    # -- main loop ----------------------------------------------------------
    def step(self):
        """One clock cycle: run the emitted straight-line step function.

        The emitted body covers two-list commits, the per-place dispatch
        in reverse-topological order, the generator transitions and the
        optional utilisation sampling; the cycle/idle bookkeeping stays
        here so ``run``'s limit checks see the same state as the other
        backends.
        """
        stats = self.stats
        fired = self._step_fn(self.cycle, stats)
        self.cycle += 1
        stats.cycles = self.cycle
        self._fired_this_cycle = fired
        if fired == 0:
            self._idle_cycles += 1
        else:
            self._idle_cycles = 0

    def reset(self):
        """Reset dynamic state while keeping the emitted step function.

        The bound step function references places, stages, the context and
        the reservation pool — all of which survive a reset — so re-running
        a model costs no re-emission (the generated-backend reset-reuse
        regression test pins this).
        """
        super().reset()
        self._reservation_pool.clear()

    def compilation_summary(self):
        """Emission statistics + cache provenance (for reports).

        The counters come from the module's embedded ``EMIT_REPORT`` so
        cache hits (which skip emission entirely) report the same numbers
        as the cold build that produced the module.
        """
        summary = dict(getattr(self.module, "EMIT_REPORT", {}))
        summary["codegen_cache"] = self.codegen_status
        return summary
