"""repro: Reduced Colored Petri Net processor modeling and cycle-accurate
simulator generation.

Reproduction of "Generic Pipelined Processor Modeling and High Performance
Cycle-Accurate Simulator Generation" (Reshadi & Dutt, DATE 2005).

Sub-packages
------------

``repro.core``
    The RCPN formalism (places, transitions, tokens, operation classes, the
    register hazard model), the static schedule derivation and the
    interpreted reference engine.  :func:`repro.core.generate_simulator`
    is the entry point that turns a validated model into a runnable
    simulator for any backend.
``repro.codegen``
    The paper's simulator *generation*, selected with
    ``EngineOptions(backend="generated")``: the model is emitted as real
    Python source — one straight-line per-cycle ``step()`` with dispatch
    tables, capacity literals and issue gating baked into the text —
    ``exec``'d into a module and memoised in-process under the net's
    structure digest.
    Bit-identical statistics to the interpreted engine, higher throughput.
``repro.describe``
    The declarative pipeline-description layer: ``PipelineSpec`` and
    friends (pure data, validated, content-hashed), the shared ARM
    transition semantics and the elaborator that turns a spec into an
    RCPN.  Every shipped processor model is a spec; the simulator-generation
    caches key on the elaborated net's structure, so rebuilding a model
    (or building another of the same structure) reuses the static
    analysis and the emitted module.
``repro.cpn``
    A Colored Petri Net substrate with analysis tools and the RCPN -> CPN
    conversion.
``repro.isa``
    The ARM7-inspired instruction set: encoding, assembler, disassembler and
    functional semantics.
``repro.memory``
    Main memory, chainable write-back caches (L1 -> optional shared L2 ->
    memory) and branch predictors; hierarchies are declared per model with
    ``repro.describe.MemorySpec``.
``repro.processors``
    The registered pipeline models (``processor_names()`` /
    ``build_processor()``): the paper's example processor, StrongARM,
    XScale, and the spec-defined ``arm7-mini``, ``xscale-deep``,
    dual-issue (``strongarm-ds``/``xscale-ds``) and memory-hierarchy
    (``strongarm-l2``/``xscale-l2``, ``strongarm-c*`` sweep) variants.
``repro.baseline``
    The fixed-architecture (SimpleScalar-style) cycle-accurate baseline and
    a functional instruction-set simulator.
``repro.workloads``
    Benchmark kernels standing in for the MiBench/MediaBench/SPEC95
    programs used in the paper.
``repro.analysis``
    Metrics, model-complexity counters and report helpers for the
    experiments.
``repro.campaign``
    Declarative experiment campaigns: ``CampaignSpec`` grids expanded into
    content-fingerprinted runs, executed on a ``multiprocessing`` worker
    pool, persisted in a JSON-lines ``ResultStore`` keyed by fingerprint
    (re-runs skip everything already stored), aggregated into the paper's
    tables, and driven from the ``python -m repro.campaign`` CLI.
"""

__version__ = "1.34.0"

__all__ = [
    "core",
    "codegen",
    "describe",
    "cpn",
    "isa",
    "memory",
    "processors",
    "baseline",
    "workloads",
    "analysis",
    "campaign",
]
