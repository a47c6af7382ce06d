"""The generated (source-level) cycle-accurate engine.

:class:`GeneratedEngine` is the run-time shell around an emitted module
(:mod:`repro.codegen.emit`): construction obtains the module from the
in-process memo keyed by the net's structure (:mod:`repro.codegen.cache`),
which emits it on a miss, binds it to this net's live objects
(:func:`repro.codegen.runtime.build_runtime`) and keeps the resulting
``run_cycles(limit)`` function.  The emitted loop owns the per-cycle
bookkeeping too (cycle counters, idle accounting), so the shared run loop
of :class:`~repro.core.engine.SimulationEngine` hands it whole busy
stretches through :meth:`GeneratedEngine._advance`.  The loop counts in
locals and adds its counts into ``stats`` when a stretch ends (and
before a call to a hook that may read them), so the statistics are exact
whenever the run loop or such a hook looks.  Everything else — the run
loop's limit checks, halt/drain detection, flush and emission services —
is inherited, and the statistics are bit-identical to the interpreted
reference; only wall-clock time may differ.

The emitted cycle body is straight-line code over preallocated objects,
so no active-place worklist is needed: an idle place costs one local load
and a truth test (each place's token list is bound once, which is why
places never rebind their lists).  A whole idle pipeline costs less
still: after a cycle in which nothing fired, the engine jumps to the next
cycle in which a resident token becomes ready
(:meth:`GeneratedEngine._fast_forward`) and accounts the skipped cycles'
stalls in one go.

Inspecting the generated code::

    engine = processor.engine          # backend="generated"
    print(engine.source)               # the emitted Python module
"""

from __future__ import annotations

from repro.core.engine import SimulationEngine

from repro.codegen.cache import CODEGEN_CACHE, codegen_key
from repro.codegen.emit import emit_module_source
from repro.codegen.runtime import build_runtime


class GeneratedEngine(SimulationEngine):
    """Cycle-accurate simulator running the emitted-source form of a model.

    ``cache`` defaults to the process-wide
    :data:`~repro.codegen.cache.CODEGEN_CACHE`; tests pass their own
    :class:`~repro.codegen.cache.ModuleCache` to observe cold/warm
    behaviour in isolation.  Every net's module comes through the memo,
    keyed by its structure (:func:`~repro.codegen.cache.codegen_key`), so
    nets of one structure share one module.
    """

    backend = "generated"

    def __init__(self, net, options=None, cache=None):
        super().__init__(net, options=options)
        self._cache = CODEGEN_CACHE if cache is None else cache
        self.module, self.codegen_status = self._cache.module_for(
            codegen_key(net, self.options),
            lambda: emit_module_source(net, self.schedule, self.options),
        )
        self.source = self.module.__source__
        self._run_cycles = self.module.make_run_cycles(build_runtime(self))
        # Stall count of the last idle cycle (see _fast_forward).
        self._idle_stalls = 0
        # Cycles _fast_forward accounted without running them.
        self.skipped_cycles = 0

    # -- main loop ----------------------------------------------------------
    def _advance(self, limit):
        """Run the emitted loop from the current cycle towards ``limit``.

        ``run_cycles`` simulates at least one cycle and returns after the
        first idle one, on reaching ``limit`` or once a halt is requested,
        with the last cycle's firing count.  On return it has left
        ``cycle``, every statistic, ``_idle_cycles`` and — for
        :meth:`_fast_forward` — the idle cycle's stall count and
        ``_cycle_read_at`` exactly as cycle-by-cycle stepping would.
        """
        self._fired_this_cycle = self._run_cycles(limit)

    def step(self):
        """One clock cycle of the emitted loop."""
        self._advance(self.cycle + 1)

    def _fast_forward(self, limit):
        """Skip the cycles that would replay the idle cycle just run.

        Nothing fired, so no token moved, was deposited (no two-list place
        holds ``pending`` tokens) or was emitted, and guards see time only
        through ``ready_cycle`` — unless one read ``ctx.cycle`` in the idle
        cycle, which stamps ``_cycle_read_at`` with that cycle and rules
        the skip out (a read in an earlier, busy cycle does not).  Every
        cycle before the earliest ``ready_cycle >= cycle`` of a resident
        token therefore repeats the idle step exactly: same stalls, nothing
        fired.  Those k cycles are accounted in one go, and counted in
        ``skipped_cycles``.

        k is clamped so ``max_cycles`` and the ``stall_limit`` deadlock
        error trip on the same cycle, with the same text, as stepping
        would; with no future ``ready_cycle`` the model is deadlocked and
        the skip runs straight to the clamp.  A run cannot finish in an
        idle step (halting and draining take firings), so ``finished()``
        needs no clamp.  Stall tracing records one event per stalled token
        per cycle, so it turns the skip off.
        """
        if self._cycle_read_at == self.cycle - 1 or self._trace_stall is not None:
            return
        cycle = self.cycle
        skip = min(limit - cycle, self.options.stall_limit - self._idle_cycles)
        for place in self.net.places.values():
            for token in place.tokens:
                wait = token.ready_cycle - cycle
                if 0 <= wait < skip:
                    skip = wait
        if skip <= 0:
            return
        self.skipped_cycles += skip
        self.cycle = cycle + skip
        stats = self.stats
        stats.cycles = self.cycle
        stats.stalls += skip * self._idle_stalls
        self._idle_cycles += skip

    def reset(self):
        """Reset dynamic state while keeping the emitted cycle loop.

        The bound ``run_cycles`` references the engine, places, stages and
        the context — all of which survive a reset — so re-running a model
        costs no re-emission (the generated-backend reset-reuse regression
        test pins this).
        """
        super().reset()
        self.skipped_cycles = 0
