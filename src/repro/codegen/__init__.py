"""Source-level simulator generation (``EngineOptions(backend="generated")``).

The fast engine backend: this package emits the model as real Python
source — a ``run_cycles(limit)`` loop around one straight-line cycle body
with the dispatch tables, capacity literals and issue gating baked into
the text — ``exec``s it into a module and memoises the module in-process
under the net's structure digest, so nets of one structure share it.

Layout:

* :mod:`repro.codegen.emit` — the emitter (net + static schedule -> source);
* :mod:`repro.codegen.cache` — in-process module memo;
* :mod:`repro.codegen.runtime` — binds an emitted module to a live net;
* :mod:`repro.codegen.engine` — :class:`GeneratedEngine`, the run-time shell.
"""

from repro.codegen.cache import CODEGEN_CACHE, ModuleCache, codegen_key
from repro.codegen.emit import emit_module_source
from repro.codegen.engine import GeneratedEngine
from repro.codegen.runtime import build_runtime, structure_digest

__all__ = [
    "CODEGEN_CACHE",
    "GeneratedEngine",
    "ModuleCache",
    "build_runtime",
    "codegen_key",
    "emit_module_source",
    "structure_digest",
]
