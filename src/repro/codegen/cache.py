"""In-process memo of emitted simulator modules.

Emitting and ``exec``-ing a model's source costs a few milliseconds, so a
process does it once per (structure, emit-relevant options).  The emitted
code is a function of

* the net's structure digest (:func:`repro.codegen.runtime.structure_digest`:
  the structure signature the schedule cache keys on, the hook templates'
  content, the two-list places, the entry places and the hook constants),
* the emission-relevant trace categories (run-length knobs like
  ``max_cycles``/``stall_limit`` are deliberately excluded),

and of nothing else, so :func:`codegen_key` hashes exactly those.  Every
net is memoised, hand-built ones included, and nets of one structure
share one module whatever their model name or spec.  An input missing
from the digest would serve a module emitted for another net;
:func:`repro.analyze.sourcecheck.verify_engine` (``python -m repro.analyze
verify``) checks an engine's module, memo-served or fresh, against the live
net it runs.  Nothing is written to disk.
"""

from __future__ import annotations

import hashlib
import types

from repro.codegen.runtime import structure_digest

#: Trace categories that change the emitted source (the others — squash,
#: token, cache — ride the shared engine/memory methods and need no
#: emitted call sites; ``hostcost`` times the spliced hook sites).
EMISSION_TRACE_CATEGORIES = ("firing", "stall", "hostcost")


def emit_trace_categories(options):
    """The emission-relevant trace categories of ``options``, or ``()``.

    Empty whenever tracing is off *or* only categories that need no
    emitted call sites are enabled — in both cases the emitted source and
    the cache key are exactly the trace-unaware ones.
    """
    config = getattr(options, "trace", None)
    if config is None or not getattr(config, "enabled", False):
        return ()
    categories = getattr(config, "categories", ())
    return tuple(c for c in EMISSION_TRACE_CATEGORIES if c in categories)


def codegen_key(net, options):
    """Memo key of ``net`` emitted under ``options``.

    Of the options, only the emission-relevant trace categories change
    the emitted *source*; they join the key only when tracing is on (see
    :func:`emit_trace_categories`), so every tracing-off configuration
    shares one key.
    """
    parts = ["repro.codegen", structure_digest(net)]
    trace_categories = emit_trace_categories(options)
    if trace_categories:
        parts.append("trace=" + ",".join(trace_categories))
    payload = "|".join(parts)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:40]


class ModuleCache:
    """In-process memo of emitted simulator modules, keyed by :func:`codegen_key`.

    The counters record how each module was obtained; the unit tests, the
    generation report and the perf ledger read them.
    """

    def __init__(self):
        self._modules = {}
        self.emits = 0
        self.memory_hits = 0

    def stats(self):
        return {
            "entries": len(self._modules),
            "emits": self.emits,
            "memory_hits": self.memory_hits,
        }

    def clear(self):
        """Drop every memoised module and zero the counters."""
        self._modules.clear()
        self.emits = self.memory_hits = 0

    def module_for(self, key, emit_source):
        """Return ``(module, status)`` for ``key``.

        ``emit_source`` is a zero-argument callable producing the source
        on a miss.  ``status`` is ``"memory"`` or ``"emitted"``.
        """
        module = self._modules.get(key)
        if module is not None:
            self.memory_hits += 1
            return module, "memory"
        source = emit_source()
        name = "repro_codegen_" + key
        module = types.ModuleType(name)
        module.__source__ = source
        exec(compile(source, "<%s>" % name, "exec"), module.__dict__)
        self.emits += 1
        self._modules[key] = module
        return module, "emitted"


#: Process-wide module memo used by :class:`repro.codegen.GeneratedEngine`.
CODEGEN_CACHE = ModuleCache()
