"""Disk + in-memory cache of emitted simulator modules.

Emitting and ``exec``-ing a model's source costs a few milliseconds; doing
it once per process (or once per machine) is enough, because the emitted
code depends only on

* the spec fingerprint (``net.spec_fingerprint``, the PR 2-5 content-hash
  plumbing that already keys the schedule cache),
* the emit-relevant engine options (``use_sorted_transitions``,
  ``two_list_everywhere``, ``collect_utilization`` — run-length knobs like
  ``max_cycles``/``stall_limit`` are deliberately excluded),
* ``repro.__version__`` and the emitter's own
  :data:`~repro.codegen.emit.CODEGEN_SOURCE_VERSION`.

:func:`codegen_key` hashes those into the cache key; the key names both
the on-disk file (``<dir>/<key>.py``) and the in-process module memo.
The cache directory defaults to ``~/.cache/repro/codegen`` (honouring
``XDG_CACHE_HOME``) and can be pointed elsewhere with the
``REPRO_CODEGEN_CACHE`` environment variable — campaign worker processes
share it, so a sweep pays one emission per model, not one per worker.

Robustness contract (exercised by ``tests/unit/test_codegen_cache.py``):
cold lookups emit and atomically write the source; warm lookups load
without re-emitting; any corrupted, truncated or mismatched cached file
falls back to a fresh emission that overwrites it, never to a crash.
Writes are best-effort — an unwritable cache directory degrades to
emit-per-process, not to an error.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import tempfile
import types


def default_cache_dir():
    """Resolve the on-disk cache directory (see module docstring)."""
    override = os.environ.get("REPRO_CODEGEN_CACHE")
    if override:
        return override
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = xdg if xdg else os.path.join(os.path.expanduser("~"), ".cache")
    return os.path.join(base, "repro", "codegen")


#: Trace categories that change the emitted source (the others — squash,
#: token, cache — ride the shared engine/memory methods and need no
#: emitted call sites).
EMISSION_TRACE_CATEGORIES = ("firing", "stall")


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


def codegen_key(fingerprint, options):
    """Cache key for one (spec fingerprint, engine options) combination.

    Only the options that change the emitted *source* participate; the
    repro version and the emitter version are folded in so upgrading
    either invalidates every stale entry.  Emission-relevant trace
    categories join the key only when tracing is on (see
    :func:`emit_trace_categories`), so tracing-off keys are byte-for-byte
    the pre-tracing ones and warm caches stay warm.
    """
    import repro
    from repro.codegen.emit import CODEGEN_SOURCE_VERSION

    parts = [
        "repro.codegen",
        str(CODEGEN_SOURCE_VERSION),
        repro.__version__,
        fingerprint,
        "sorted=%r" % options.use_sorted_transitions,
        "twolist=%r" % options.two_list_everywhere,
        "util=%r" % options.collect_utilization,
    ]
    trace_categories = emit_trace_categories(options)
    if trace_categories:
        parts.append("trace=" + ",".join(trace_categories))
    payload = "|".join(parts)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:40]


class ModuleCache:
    """Two-level (memory, disk) cache of emitted simulator modules.

    ``directory=None`` resolves :func:`default_cache_dir` lazily on every
    access, so tests can redirect the cache through the environment after
    import.  Counters record how each module was obtained; the unit tests
    and the generation report read them.
    """

    def __init__(self, directory=None):
        self.directory = directory
        self._modules = {}
        self.emits = 0
        self.memory_hits = 0
        self.disk_hits = 0
        self.invalid = 0

    # -- bookkeeping ------------------------------------------------------
    def path_for(self, key):
        return os.path.join(self.directory or default_cache_dir(), key + ".py")

    def stats(self):
        return {
            "entries": len(self._modules),
            "emits": self.emits,
            "memory_hits": self.memory_hits,
            "disk_hits": self.disk_hits,
            "invalid": self.invalid,
        }

    def clear(self, counters=True):
        """Drop the in-memory memo (the disk entries survive)."""
        self._modules.clear()
        if counters:
            self.emits = self.memory_hits = self.disk_hits = self.invalid = 0

    # -- the lookup protocol ----------------------------------------------
    def module_for(self, key, emit_source):
        """Return ``(module, status)`` for ``key``.

        ``emit_source`` is a zero-argument callable producing the source
        on a miss.  ``status`` is ``"memory"``, ``"disk"`` or
        ``"emitted"``.
        """
        module = self._modules.get(key)
        if module is not None:
            self.memory_hits += 1
            return module, "memory"

        path = self.path_for(key)
        cached = self._read(path)
        if cached is not None:
            module = self._exec(key, cached, path)
            if module is not None:
                self.disk_hits += 1
                self._modules[key] = module
                return module, "disk"
            # Corrupted/truncated/foreign file: fall through to re-emission.
            self.invalid += 1

        source = emit_source()
        self.emits += 1
        module = self._exec(key, source, path)
        if module is None:  # pragma: no cover - emitter bug, not cache state
            raise RuntimeError("freshly emitted codegen module failed to execute")
        self._write(path, source)
        self._modules[key] = module
        return module, "emitted"

    def replace(self, key, source):
        """Overwrite ``key`` with freshly emitted ``source`` (staleness path)."""
        module = self._exec(key, source, self.path_for(key))
        if module is None:  # pragma: no cover - emitter bug
            raise RuntimeError("freshly emitted codegen module failed to execute")
        self._write(self.path_for(key), source)
        self._modules[key] = module
        return module

    # -- internals --------------------------------------------------------
    @staticmethod
    def _read(path):
        try:
            with open(path, encoding="utf-8") as handle:
                return handle.read()
        except OSError:
            return None

    @staticmethod
    def _write(path, source):
        """Atomic best-effort write: concurrent campaign workers may race
        on the same key, and a torn write must never leave a half-file."""
        directory = os.path.dirname(path)
        # An unwritable cache dir degrades to emit-per-process.
        with contextlib.suppress(OSError):
            os.makedirs(directory, exist_ok=True)
            handle = tempfile.NamedTemporaryFile(
                mode="w",
                encoding="utf-8",
                dir=directory,
                prefix=".tmp-",
                suffix=".py",
                delete=False,
            )
            try:
                with handle:
                    handle.write(source)
                os.replace(handle.name, path)
            except BaseException:
                os.unlink(handle.name)
                raise

    @staticmethod
    def _exec(key, source, path):
        """Compile + execute ``source``; ``None`` on any validation failure."""
        try:
            code = compile(source, path, "exec")
            module = types.ModuleType("repro_codegen_" + key)
            module.__source__ = source
            exec(code, module.__dict__)
        except Exception:
            return None
        if getattr(module, "CODEGEN_KEY", None) != key:
            return None
        if not callable(getattr(module, "make_step", None)):
            return None
        return module


#: Process-wide module cache used by :class:`repro.codegen.GeneratedEngine`.
CODEGEN_CACHE = ModuleCache()
