"""In-process memo of emitted simulator modules.

Emitting and ``exec``-ing a model's source costs a few milliseconds, so a
process does it once per (model, emit-relevant options).  The emitted code
depends only on

* the spec fingerprint (``net.spec_fingerprint``, which also keys the
  schedule cache),
* the net's structure, gating and two-list places
  (:func:`repro.codegen.runtime.structure_digest`), so a net mutated
  after elaboration never shares a module with the clean build of its
  spec,
* the emission-relevant trace categories (run-length knobs like
  ``max_cycles``/``stall_limit`` are deliberately excluded).

:func:`codegen_key` hashes those into the memo key.  Everything the emitted
source depends on is in the key, so an entry can never be stale and there
is no recovery path.  Nothing is written to disk.
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
    """Memo key of ``net`` emitted under ``options``; ``None`` without a fingerprint.

    Of the options, only the emission-relevant trace categories change
    the emitted *source*; they join the key only when tracing is on (see
    :func:`emit_trace_categories`), so every tracing-off configuration
    shares one key.  Hand-built nets carry no spec fingerprint and get no
    key: they are emitted fresh on every build.
    """
    fingerprint = getattr(net, "spec_fingerprint", None)
    if fingerprint is None:
        return None
    parts = [
        "repro.codegen",
        fingerprint,
        structure_digest(net),
    ]
    trace_categories = emit_trace_categories(options)
    if trace_categories:
        parts.append("trace=" + ",".join(trace_categories))
    payload = "|".join(parts)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:40]


def exec_module(source, name):
    """Compile and execute emitted ``source`` as a fresh module."""
    module = types.ModuleType(name)
    module.__source__ = source
    exec(compile(source, "<%s>" % name, "exec"), module.__dict__)
    return module


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
        module = exec_module(emit_source(), "repro_codegen_" + key)
        self.emits += 1
        self._modules[key] = module
        return module, "emitted"


#: Process-wide module memo used by :class:`repro.codegen.GeneratedEngine`.
CODEGEN_CACHE = ModuleCache()
