"""Declarative experiment campaigns (pure data, validated, fingerprinted).

A :class:`CampaignSpec` describes a *grid* of simulations — processors,
workloads, scales, engine variants, budgets, repeats — the way a
:class:`~repro.describe.PipelineSpec` describes a pipeline: as plain data
that can be validated before anything runs and expanded deterministically
(:func:`repro.campaign.planner.plan_campaign`) into :class:`RunSpec`s.

Every :class:`RunSpec` has a stable content :meth:`~RunSpec.fingerprint`
combining the processor-spec fingerprint, the workload identity (name,
scale and a hash of its assembled source), the engine configuration, the
run budgets and a digest of the ``repro`` package's source
(:func:`source_digest`).  The fingerprint is the key of the
:class:`~repro.campaign.store.ResultStore`: a campaign never re-executes a
run whose fingerprint is already stored, which is what makes campaigns
incremental and resumable.
"""

from __future__ import annotations

import difflib
import functools
import hashlib
import json
import pathlib
from dataclasses import asdict, dataclass, field, fields, replace

import repro
from repro.core.engine import EngineOptions
from repro.describe.spec import PipelineSpec


class CampaignError(ValueError):
    """A campaign description is inconsistent or a campaign run failed."""


@functools.lru_cache(maxsize=None)
def source_digest():
    """sha256 of the ``repro`` package's ``.py`` files, computed once per process.

    Each file enters as its path relative to the package, its length and
    its bytes, in path order.  Any code change re-keys every stored run; a
    version bump alone re-keys none.
    """
    root = pathlib.Path(repro.__file__).parent
    digest = hashlib.sha256()
    for relative in sorted(path.relative_to(root).as_posix() for path in root.rglob("*.py")):
        data = (root / relative).read_bytes()
        digest.update(b"%s\0%d\0" % (relative.encode("utf-8"), len(data)))
        digest.update(data)
    return digest.hexdigest()


#: Sentinel accepted by the ``processors``/``workloads`` axes: expand to
#: every name the corresponding registry knows at planning time.
ALL = "all"


@dataclass(frozen=True)
class EngineVariant:
    """One engine configuration of a campaign's engine axis.

    ``label`` names the variant in results and reports; ``options`` is the
    full :class:`~repro.core.engine.EngineOptions` (``None`` means the
    defaults).  The plain backend strings
    (``"interpreted"``/``"generated"``, see
    :data:`~repro.core.engine.ENGINE_BACKENDS`) are accepted anywhere a
    variant is and normalise to a variant of that backend with default
    options.
    """

    label: str
    options: EngineOptions = None

    def resolved_options(self):
        """A private :class:`EngineOptions` copy (engines mutate nothing shared)."""
        return replace(self.options) if self.options is not None else EngineOptions()

    @property
    def backend(self):
        return (self.options or EngineOptions()).backend

    def identity(self):
        """The variant as plain data, for :meth:`RunSpec.fingerprint`.

        The label is deliberately excluded: renaming a variant must not
        invalidate stored results whose simulated behaviour is unchanged.
        So is ``options.trace``: tracing observes a run without perturbing
        its statistics (the trace-equivalence suite pins this), so a traced
        re-run of a stored campaign stays fully cached.
        """
        options = asdict(self.options or EngineOptions())
        options.pop("trace", None)
        return {"options": options}


def engine_variant(value):
    """Normalise an engine-axis entry to an :class:`EngineVariant`."""
    if isinstance(value, EngineVariant):
        return value
    if isinstance(value, EngineOptions):
        return EngineVariant(label=value.backend, options=value)
    if isinstance(value, str):
        return EngineVariant(label=value, options=_engine_options({"backend": value}))
    raise CampaignError("bad engine-axis entry %r" % (value,))


def _engine_options(options):
    """``EngineOptions(**options)`` from campaign data, as a :class:`CampaignError`.

    An unknown key names the closest :class:`EngineOptions` field instead
    of surfacing as a raw ``TypeError``.
    """
    known = [f.name for f in fields(EngineOptions)]
    for key in options:
        if key not in known:
            close = difflib.get_close_matches(str(key), known, n=1)
            raise CampaignError(
                "unknown engine option %r; expected one of %s%s"
                % (key, ", ".join(known), "; did you mean %r?" % close[0] if close else "")
            )
    try:
        return EngineOptions(**options)
    except ValueError as error:
        raise CampaignError(str(error)) from None


def _workload_digest(name, scale):
    """Content hash of one workload: the assembled source text at its scale."""
    from repro.workloads.kernels import kernel_source

    source = kernel_source(name, scale)
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


def _processor_fingerprint(name, inline_spec):
    """Content identity of the processor axis value of one run."""
    if inline_spec is not None:
        return inline_spec.fingerprint()
    from repro.processors.registry import get_spec

    return get_spec(name).fingerprint()


@dataclass(frozen=True)
class RunSpec:
    """One fully specified simulation: what to build, load and run.

    ``processor`` is a registry name unless ``processor_spec`` carries an
    inline :class:`~repro.describe.PipelineSpec`; either way workers
    rebuild the model from the description, so a run crosses process
    boundaries as plain picklable data.
    """

    processor: str
    workload: str
    scale: int = 1
    engine: EngineVariant = field(default_factory=lambda: engine_variant("interpreted"))
    max_cycles: int = None
    max_instructions: int = None
    repeat: int = 0
    processor_spec: PipelineSpec = None

    def __post_init__(self):
        object.__setattr__(self, "engine", engine_variant(self.engine))

    @property
    def run_id(self):
        """Human-readable identity, used for report rows and pytest ids."""
        suffix = "#r%d" % self.repeat if self.repeat else ""
        return "%s/%s@%d/%s%s" % (
            self.processor,
            self.workload,
            self.scale,
            self.engine.label,
            suffix,
        )

    def identity(self):
        """Everything the simulated outcome (and cost) depends on, as data."""
        return {
            "source": source_digest(),
            "processor": _processor_fingerprint(self.processor, self.processor_spec),
            "workload": {
                "name": self.workload,
                "scale": self.scale,
                "digest": _workload_digest(self.workload, self.scale),
            },
            "engine": self.engine.identity(),
            "max_cycles": self.max_cycles,
            "max_instructions": self.max_instructions,
            "repeat": self.repeat,
        }

    def fingerprint(self):
        """Stable content hash keying the :class:`~repro.campaign.store.ResultStore`.

        Memoized per instance: the hash re-assembles the workload source,
        and planner, runner and CLI status all key by it repeatedly.
        """
        cached = self.__dict__.get("_fingerprint")
        if cached is None:
            canonical = json.dumps(self.identity(), sort_keys=True, default=str)
            cached = hashlib.sha256(
                ("campaign-run-v1:" + canonical).encode("utf-8")
            ).hexdigest()
            object.__setattr__(self, "_fingerprint", cached)
        return cached


def _tuple(value):
    if value is None:
        return ()
    if isinstance(value, (str, PipelineSpec)):
        return (value,)
    return tuple(value)


@dataclass(frozen=True)
class CampaignSpec:
    """A declarative experiment campaign: a grid plus explicit extra runs.

    * ``processors`` — registry names, inline ``PipelineSpec``s, or the
      string ``"all"`` for every registered model;
    * ``workloads`` — workload names or ``"all"`` for the six paper kernels;
    * ``scales`` — workload scale factors (the grid crosses each workload
      with each scale);
    * ``engines`` — backend strings, ``EngineOptions`` or
      :class:`EngineVariant`s;
    * ``max_cycles`` / ``max_instructions`` — per-run simulation budgets;
    * ``repeats`` — how many times each grid point runs (each repeat is a
      distinct fingerprint, for wall-clock variance studies);
    * ``runs`` — explicit :class:`RunSpec`s appended verbatim after the grid.

    Pairings a model's ISA subset cannot execute are dropped at planning
    time and reported in :attr:`~repro.campaign.planner.CampaignPlan.skipped`.
    """

    name: str
    processors: tuple = (ALL,)
    workloads: tuple = (ALL,)
    scales: tuple = (1,)
    engines: tuple = ("interpreted",)
    max_cycles: int = None
    max_instructions: int = None
    repeats: int = 1
    runs: tuple = ()
    description: str = ""

    def __post_init__(self):
        object.__setattr__(self, "processors", _tuple(self.processors))
        object.__setattr__(self, "workloads", _tuple(self.workloads))
        object.__setattr__(self, "scales", _tuple(self.scales))
        object.__setattr__(self, "engines", _tuple(self.engines))
        object.__setattr__(self, "runs", _tuple(self.runs))

    def engine_variants(self):
        """The engine axis, normalised to :class:`EngineVariant`s."""
        return tuple(engine_variant(value) for value in self.engines)

    def validate(self):
        """Check internal consistency; raises :class:`CampaignError` on problems."""
        problems = []
        if not self.name:
            problems.append("campaign has no name")
        if not self.processors and not self.runs:
            problems.append("campaign declares no processors and no explicit runs")
        # An empty workload axis is legal: such a spec only enumerates its
        # processor axis (campaign_processors); *planning* one is rejected
        # by plan_campaign's zero-run guard instead.
        if not self.scales:
            problems.append("campaign declares no scales")
        for scale in self.scales:
            if not isinstance(scale, int) or scale < 1:
                problems.append("bad scale %r (need a positive integer)" % (scale,))
        if not self.engines and not self.runs:
            problems.append("campaign declares no engine variants")
        try:
            variants = self.engine_variants()
        except CampaignError as error:
            problems.append(str(error))
            variants = ()
        labels = [variant.label for variant in variants]
        if len(set(labels)) != len(labels):
            problems.append("duplicate engine-variant labels: %s" % ", ".join(labels))
        if not isinstance(self.repeats, int) or self.repeats < 1:
            problems.append("bad repeats %r (need a positive integer)" % (self.repeats,))
        for run in self.runs:
            if not isinstance(run, RunSpec):
                problems.append("explicit run %r is not a RunSpec" % (run,))
        for processor in self.processors:
            if not isinstance(processor, (str, PipelineSpec)):
                problems.append(
                    "bad processor-axis entry %r (need a registry name or a PipelineSpec)"
                    % (processor,)
                )
        if problems:
            raise CampaignError(
                "invalid campaign %r:\n  - %s" % (self.name, "\n  - ".join(problems))
            )
        return True

    # -- CLI / file interchange ----------------------------------------------
    def to_dict(self):
        """The campaign as JSON-compatible data (inline specs unsupported)."""
        for processor in self.processors:
            if isinstance(processor, PipelineSpec):
                raise CampaignError(
                    "campaign %r holds an inline PipelineSpec (%r); only "
                    "registry names serialise to JSON" % (self.name, processor.name)
                )
        if self.runs:
            raise CampaignError(
                "campaign %r holds explicit RunSpecs; only grid campaigns "
                "serialise to JSON" % self.name
            )
        data = {
            "name": self.name,
            "processors": list(self.processors),
            "workloads": list(self.workloads),
            "scales": list(self.scales),
            "engines": [
                {
                    "label": variant.label,
                    "options": asdict(variant.options or EngineOptions()),
                }
                for variant in self.engine_variants()
            ],
            "repeats": self.repeats,
            "description": self.description,
        }
        if self.max_cycles is not None:
            data["max_cycles"] = self.max_cycles
        if self.max_instructions is not None:
            data["max_instructions"] = self.max_instructions
        return data

    @classmethod
    def from_dict(cls, data):
        """Rebuild a grid campaign from :meth:`to_dict` output (or CLI JSON).

        Only known keys are read, so spec files written by older versions,
        with knobs since retired, load unchanged.
        """
        engines = []
        for entry in data.get("engines", ("interpreted",)):
            if isinstance(entry, str):
                engines.append(entry)
            elif isinstance(entry, dict):
                options = dict(entry.get("options") or {})
                # Older spec files carry retired options that never changed
                # a statistic: the lane-batched backend's batch width, the
                # utilisation-sampling switch and the Section 4 switches
                # (as is the entry's ``use_decode_cache``, never read).
                for retired in (
                    "lanes",
                    "collect_utilization",
                    "use_sorted_transitions",
                    "two_list_everywhere",
                ):
                    options.pop(retired, None)
                if "backend" in entry and "backend" not in options:
                    options["backend"] = entry["backend"]
                engines.append(
                    EngineVariant(
                        label=entry.get("label") or options.get("backend", "interpreted"),
                        options=_engine_options(options),
                    )
                )
            else:
                raise CampaignError("bad engine entry %r in campaign data" % (entry,))
        spec = cls(
            name=data["name"],
            processors=tuple(data.get("processors", (ALL,))),
            workloads=tuple(data.get("workloads", (ALL,))),
            scales=tuple(data.get("scales", (1,))),
            engines=tuple(engines),
            max_cycles=data.get("max_cycles"),
            max_instructions=data.get("max_instructions"),
            repeats=data.get("repeats", 1),
            description=data.get("description", ""),
        )
        spec.validate()
        return spec
