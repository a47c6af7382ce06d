"""RCPN processor models, defined as declarative pipeline specs.

* :mod:`repro.processors.example` — the paper's Figure 4/5 representative
  out-of-order-completion processor with a feedback (bypass) path; the
  pedagogical model used by the quickstart example.
* :mod:`repro.processors.strongarm` — the StrongARM SA-110 five-stage
  pipeline of the paper's experiments.
* :mod:`repro.processors.xscale` — the Intel XScale seven-stage pipeline
  (Figure 9): in-order issue, out-of-order completion across the X/D/M
  pipes, BTB branch prediction.
* :mod:`repro.processors.variants` — spec-defined variants (a three-stage
  ``arm7-mini``, a deepened ``xscale-deep``, the dual-issue
  ``strongarm-ds``/``xscale-ds`` built from an
  :class:`~repro.describe.IssueSpec`, and the memory-hierarchy
  ``strongarm-l2``/``xscale-l2`` plus the ``strongarm-c*`` cache-capacity
  sweep built from a :class:`~repro.describe.MemorySpec`) showing how
  cheap a new pipeline is once the description layer does the wiring.

Each model is a :class:`repro.describe.PipelineSpec` elaborated by
:mod:`repro.describe` into an :class:`repro.core.RCPN` and wrapped in the
:class:`~repro.describe.substrate.Processor` facade that knows how to load
a program, run the generated simulator and report statistics.  The
:mod:`repro.processors.registry` names them all: use
``build_processor("xscale", backend="generated")`` instead of importing
builders one by one.
"""

from repro.describe.substrate import Processor, ProcessorCore
from repro.processors.example import build_example_processor, example_spec
from repro.processors.registry import (
    ProcessorEntry,
    build_processor,
    get_entry,
    get_spec,
    processor_names,
    register_processor,
    supported_kernels,
)
from repro.processors.strongarm import build_strongarm_processor, strongarm_spec
from repro.processors.variants import (
    arm7_mini_spec,
    strongarm_ds_spec,
    strongarm_l2_spec,
    xscale_deep_spec,
    xscale_ds_spec,
    xscale_l2_spec,
)
from repro.processors.xscale import build_xscale_processor, xscale_spec

__all__ = [
    "Processor",
    "ProcessorCore",
    "ProcessorEntry",
    "arm7_mini_spec",
    "build_example_processor",
    "build_processor",
    "build_strongarm_processor",
    "build_xscale_processor",
    "example_spec",
    "get_entry",
    "get_spec",
    "processor_names",
    "register_processor",
    "strongarm_ds_spec",
    "strongarm_l2_spec",
    "strongarm_spec",
    "supported_kernels",
    "xscale_deep_spec",
    "xscale_ds_spec",
    "xscale_l2_spec",
    "xscale_spec",
]
