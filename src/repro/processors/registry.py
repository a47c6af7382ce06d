"""Processor registry: named pipeline models, mirroring the workload registry.

A registered model is its spec: every entry holds a spec factory (a
zero-argument callable returning the declarative
:class:`~repro.describe.PipelineSpec`), and :func:`build_processor`
elaborates that spec with the standard semantics, so the spec alone
decides what a name builds — and a campaign keys a run on the spec's
fingerprint.  Callers can build a ready-to-run simulator
(:func:`build_processor`) or inspect/derive from the description itself
(:func:`get_spec`).  Third-party code can :func:`register_processor` its own
specs; the benchmark harness and the differential tests iterate
:func:`processor_names` so registered models are exercised automatically.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.exceptions import UnknownNameError
from repro.describe import elaborate
from repro.processors.example import example_spec
from repro.processors.strongarm import strongarm_spec
from repro.processors.variants import (
    CACHE_SWEEP,
    arm7_mini_spec,
    strongarm_ds_spec,
    strongarm_l2_spec,
    xscale_deep_spec,
    xscale_ds_spec,
    xscale_l2_spec,
)
from repro.processors.xscale import xscale_spec

#: Kernels every full-ISA model runs.  Models covering a subset of the ISA
#: declare the subset explicitly in their registry entry.
FULL_ISA = None


@dataclass(frozen=True)
class ProcessorEntry:
    """One registered model: its spec factory and ISA coverage."""

    name: str
    spec_factory: object
    description: str = ""
    #: Workload names the model supports, or ``None`` for the full ISA.
    kernels: tuple = FULL_ISA
    #: Whether ``repro.analyze`` sweeps (``lint --all``, CI gating) include
    #: this model.  Deliberately-broken fixtures register with
    #: ``lint=False`` so they do not fail the clean-registry check; the
    #: analyzer can still lint them when named explicitly.
    lint: bool = True


_REGISTRY = {}


def register_processor(name, spec_factory, description="", kernels=FULL_ISA, lint=True):
    """Register the model ``spec_factory`` describes under ``name``.

    ``spec_factory`` is a zero-argument callable returning a
    :class:`~repro.describe.PipelineSpec`.
    """
    entry = ProcessorEntry(
        name=name,
        spec_factory=spec_factory,
        description=description or spec_factory().description,
        kernels=tuple(kernels) if kernels is not FULL_ISA else FULL_ISA,
        lint=bool(lint),
    )
    _REGISTRY[name] = entry
    return entry


def processor_names():
    """All registered model names, in registration order."""
    return tuple(_REGISTRY)


def get_entry(name):
    """The :class:`ProcessorEntry` registered under ``name``."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise UnknownNameError("processor", name, processor_names()) from None


def get_spec(name):
    """The declarative spec of a registered model."""
    return get_entry(name).spec_factory()


def build_processor(name, **kwargs):
    """Elaborate the named model's spec; kwargs go to
    :func:`~repro.describe.elaborate` (``backend=...``, etc.)."""
    return elaborate(get_spec(name), **kwargs)


def supported_kernels(name, all_kernels):
    """Filter ``all_kernels`` down to what the named model can execute."""
    entry = get_entry(name)
    if entry.kernels is FULL_ISA:
        return tuple(all_kernels)
    return tuple(k for k in all_kernels if k in entry.kernels)


# -- the shipped models -------------------------------------------------------
register_processor(
    "example",
    spec_factory=example_spec,
    # The Figure 4/5 model implements only the alu/mem/branch/system
    # classes; these kernels use no multiply or block transfer.
    kernels=("blowfish", "compress", "crc"),
)
register_processor("strongarm", spec_factory=strongarm_spec)
register_processor("xscale", spec_factory=xscale_spec)
register_processor("arm7-mini", spec_factory=arm7_mini_spec)
register_processor("xscale-deep", spec_factory=xscale_deep_spec)
register_processor("strongarm-ds", spec_factory=strongarm_ds_spec)
register_processor("xscale-ds", spec_factory=xscale_ds_spec)
# Memory-hierarchy variants (Figure 12 cache-sensitivity family).
register_processor("strongarm-l2", spec_factory=strongarm_l2_spec)
register_processor("xscale-l2", spec_factory=xscale_l2_spec)
for _suffix, _factory in CACHE_SWEEP.items():
    register_processor("strongarm-%s" % _suffix, spec_factory=_factory)
