"""Declarative pipeline descriptions (the paper's "compact model" layer).

A :class:`PipelineSpec` is a pure-data description of a pipelined processor:
its stages, the per-operation-class paths through them, the hazard/bypass
configuration, the fetch discipline and the branch predictor.  The spec
carries *no* callables — transition behaviour is referenced by hook name and
resolved against :class:`repro.describe.semantics.ArmSemantics` (or a
user-supplied subclass) when :func:`repro.describe.elaborate.elaborate`
turns the spec into an executable RCPN.

Because a spec is plain data it can be validated before elaboration
(:meth:`PipelineSpec.validate`) and hashed into a stable
:meth:`PipelineSpec.fingerprint`, which campaign runs key on and the
generation report carries.  The simulator-generation caches
(:mod:`repro.core.scheduler`, :mod:`repro.codegen.cache`) key on the
elaborated net's structure instead, so rebuilding the same spec reuses the
static analysis and the emitted module of the first build.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field


class SpecError(ValueError):
    """A pipeline description is inconsistent (bad stage/hook/place reference)."""


def _tuple(value):
    if value is None:
        return ()
    if isinstance(value, str):
        return (value,)
    return tuple(value)


def _suggest(name, candidates):
    """A ``; did you mean 'x'?`` suffix when ``name`` is close to a candidate."""
    import difflib

    matches = difflib.get_close_matches(str(name), [str(c) for c in candidates], n=1)
    return "; did you mean %r?" % matches[0] if matches else ""


def known_operation_classes():
    """The operation-class vocabulary paths may use (the ARM six)."""
    from repro.describe.substrate import arm_operation_classes

    return tuple(opclass.name for opclass in arm_operation_classes())


@dataclass(frozen=True)
class StageSpec:
    """One pipeline stage (latch / buffer): its capacity and residence delay."""

    name: str
    capacity: int = 1
    delay: int = 1


@dataclass(frozen=True)
class PlaceSpec:
    """An extra place inside one sub-net (e.g. a branch-stall latch).

    ``key`` is how the path's transitions refer to it (``produces`` /
    ``consumes`` / ``source`` / ``target``); ``stage`` is the pipeline stage
    the place belongs to; ``name`` overrides the default
    ``<subnet>.<stage>`` place name.
    """

    key: str
    stage: str
    name: str = None


@dataclass(frozen=True)
class TransitionSpec:
    """One transition of an operation-class path.

    ``source`` and ``target`` are stage names, extra-place keys or the
    literal ``"end"``.  ``hooks`` names the guard/action factories (resolved
    by the semantics object); at most one hook may contribute a guard, and
    all hook actions are chained in order.
    """

    name: str
    source: str
    target: str
    hooks: tuple = ()
    priority: int = 0
    produces: tuple = ()
    consumes: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "hooks", _tuple(self.hooks))
        object.__setattr__(self, "produces", _tuple(self.produces))
        object.__setattr__(self, "consumes", _tuple(self.consumes))


@dataclass(frozen=True)
class OpClassPathSpec:
    """The path one operation class takes through the pipeline.

    ``stages`` is the ordered tuple of stage names the instruction token
    passes through; the first stage's place is the sub-net's entry place and
    a final ``end`` place is always appended.  ``transitions`` lists the
    edges (usually built with :func:`linear_path`).
    """

    opclass: str
    stages: tuple
    transitions: tuple
    extra_places: tuple = ()
    subnet: str = None

    def __post_init__(self):
        object.__setattr__(self, "stages", _tuple(self.stages))
        object.__setattr__(self, "transitions", tuple(self.transitions))
        object.__setattr__(self, "extra_places", tuple(self.extra_places))

    @property
    def subnet_name(self):
        return self.subnet or self.opclass


@dataclass(frozen=True)
class IssuePortSpec:
    """One issue port: a per-cycle issue budget shared by some classes.

    ``classes`` lists the operation classes that must issue through this
    port; ``count`` is how many of them may issue per cycle.  A single
    data-cache port (``IssuePortSpec("dmem", classes=("mem", "memm"))``) is
    the canonical example: a dual-issue front end may pair an ALU operation
    with a load, but never two memory operations.
    """

    name: str
    classes: tuple
    count: int = 1

    def __post_init__(self):
        object.__setattr__(self, "classes", _tuple(self.classes))


@dataclass(frozen=True)
class IssueSpec:
    """The issue discipline of the pipeline (single- or multi-issue).

    * ``width`` — instructions issued (and fetched) per cycle.  The default
      of 1 keeps the classic single-issue elaboration: no arbiter unit is
      built and the generated net is identical to a pre-multi-issue spec.
    * ``stage`` — the stage instructions issue *out of* (required when
      ``width > 1``); every transition leaving a place of this stage is an
      issue point and consumes one slot of the per-cycle issue bandwidth.
      Issue is in program order: a younger instruction may not issue while
      an older one is still waiting, even when the two sit in different
      places of the issue stage.  This is what generalises the RegRef
      reservation protocol beyond the single-issue structural guarantee
      (see :class:`HazardSpec`): reservations are taken in fetch order at
      the gate, so a young instruction can never read registers or flags
      before a stalled older writer has reserved them.
    * ``ports`` — per-class structural issue constraints
      (:class:`IssuePortSpec`).
    """

    width: int = 1
    stage: str = None
    ports: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "ports", tuple(self.ports))

    @property
    def multi(self):
        """True when this spec actually requests multi-issue elaboration."""
        return self.width > 1

    def port_of(self):
        """Operation class -> port name, derived from :attr:`ports`."""
        return {cls: port.name for port in self.ports for cls in port.classes}

    def port_limits(self):
        """Port name -> per-cycle issue budget."""
        return {port.name: port.count for port in self.ports}


@dataclass(frozen=True)
class HazardSpec:
    """Data-hazard and control-hazard configuration.

    With the default single-issue :class:`IssueSpec`, the RegRef
    reservation protocol assumes in-order issue at a single pipeline depth:
    every path's issue/resolve hook should attach at the same distance from
    fetch (as in all shipped models), otherwise a young instruction can
    read registers or flags before a *stalled* older writer has reserved
    them.  Multi-issue specs (``IssueSpec(width>1)``) replace that
    structural assumption with an explicit program-order gate at the issue
    stage, so reservations are taken in fetch order no matter how the
    paths interleave.

    * ``forward_states`` — pipeline states whose pending results the bypass
      network may forward to the issue stage;
    * ``front_flush_stages`` — stages squashed when the front end is
      redirected at resolution time (taken branch / misprediction / halt);
    * ``redirect_flush_stages`` — fallback stage set for PC writes deep in
      the pipe (load-to-PC and friends).  Redirects that know their
      originating token squash by *program order* instead
      (``ctx.flush_younger``), which also withdraws fetch-stall
      reservations parked by squashed wrong-path branches; the stage list
      only serves token-less redirects from custom semantics;
    * ``s1_forward_state`` — the paper's Figure 5 restricted bypass: only
      the first ALU source may forward, and only from this state.
    """

    forward_states: tuple = ()
    front_flush_stages: tuple = ()
    redirect_flush_stages: tuple = ()
    s1_forward_state: str = None

    def __post_init__(self):
        object.__setattr__(self, "forward_states", _tuple(self.forward_states))
        object.__setattr__(self, "front_flush_stages", _tuple(self.front_flush_stages))
        object.__setattr__(
            self, "redirect_flush_stages", _tuple(self.redirect_flush_stages)
        )


@dataclass(frozen=True)
class FetchSpec:
    """The instruction-independent fetch sub-net.

    ``style`` selects the fetch discipline:

    * ``"sequential"`` — fetch the next sequential word each cycle
      (optionally gated on ``stall_stage`` being empty, the StrongARM /
      Figure 5 reservation-token stall);
    * ``"btb"`` — look the PC up in the branch target buffer and follow the
      predicted target (XScale).
    """

    style: str = "sequential"
    capacity_stage: str = None
    stall_stage: str = None
    subnet: str = "fetch"
    name: str = "fetch"


@dataclass(frozen=True)
class PredictorSpec:
    """The branch predictor unit attached to the model (if any)."""

    kind: str = None  # None | "static_not_taken" | "btb"
    unit_name: str = None
    btb_entries: int = 128


@dataclass(frozen=True)
class CacheLevelSpec:
    """Geometry and timing of one cache level, as pure description data.

    The runtime mirror is :class:`repro.memory.cache.CacheConfig`; this
    spec exists so the memory hierarchy participates in validation and in
    the pipeline fingerprint like every other declarative knob.  The
    ``miss_penalty`` defaults to zero because the full miss cost is charged
    as the backing level's latency (see :class:`MemorySpec`).
    """

    name: str = "L1"
    size_bytes: int = 32 * 1024
    line_bytes: int = 32
    associativity: int = 32
    hit_latency: int = 1
    miss_penalty: int = 0

    def problems(self):
        """Geometry/timing inconsistencies of this level, as strings."""
        from repro.memory.cache import cache_geometry_problems

        return [
            "cache %r: %s" % (self.name, problem)
            for problem in cache_geometry_problems(
                size_bytes=self.size_bytes,
                line_bytes=self.line_bytes,
                associativity=self.associativity,
                hit_latency=self.hit_latency,
                miss_penalty=self.miss_penalty,
            )
        ]


def _default_icache():
    return CacheLevelSpec(name="I$")


def _default_dcache():
    return CacheLevelSpec(name="D$")


@dataclass(frozen=True)
class MemorySpec:
    """The memory hierarchy of a pipeline description.

    * ``l1_instruction`` / ``l1_data`` — the split first-level caches (the
      StrongARM/XScale organisation, and the default);
    * ``l1_unified`` — when set, one cache serves instruction fetch and
      data access; the split fields must then be left at their defaults
      (they are ignored, and silently-ignored customisation is an error);
    * ``l2`` — an optional second level shared by the L1s: L1 misses fill
      from it and dirty L1 victims write back into it, so only L2 misses
      and L2 writebacks reach the fixed-latency memory;
    * ``memory_latency`` — the flat backing-memory latency in cycles.

    The default ``MemorySpec()`` elaborates to exactly the memory system
    every pre-existing model was built with, so specs that do not mention
    memory keep bit-identical timing.
    """

    l1_instruction: CacheLevelSpec = field(default_factory=_default_icache)
    l1_data: CacheLevelSpec = field(default_factory=_default_dcache)
    l1_unified: CacheLevelSpec = None
    l2: CacheLevelSpec = None
    memory_latency: int = 30

    def problems(self):
        """Every inconsistency of the hierarchy, as strings."""
        problems = []
        for level_name in ("l1_instruction", "l1_data", "l1_unified", "l2"):
            level = getattr(self, level_name)
            if level is None:
                continue
            if not isinstance(level, CacheLevelSpec):
                problems.append(
                    "%s: memory level must be a CacheLevelSpec, got %r" % (level_name, level)
                )
                continue
            problems.extend("%s: %s" % (level_name, problem) for problem in level.problems())
        if self.l1_unified is not None and (
            self.l1_instruction != _default_icache() or self.l1_data != _default_dcache()
        ):
            problems.append(
                "l1_unified: a unified L1 replaces the split caches; leave "
                "l1_instruction/l1_data at their defaults"
            )
        if not isinstance(self.memory_latency, int) or self.memory_latency < 0:
            problems.append(
                "memory_latency: memory latency %r must be a non-negative integer"
                % (self.memory_latency,)
            )
        return problems

    def validate(self):
        """Check internal consistency; raises :class:`SpecError` on problems."""
        problems = self.problems()
        if problems:
            raise SpecError(
                "invalid memory spec:\n  - %s" % "\n  - ".join(problems)
            )
        return True


@dataclass(frozen=True)
class PipelineSpec:
    """A complete declarative pipeline description."""

    name: str
    stages: tuple
    paths: tuple
    hazards: HazardSpec = field(default_factory=HazardSpec)
    fetch: FetchSpec = field(default_factory=FetchSpec)
    predictor: PredictorSpec = field(default_factory=PredictorSpec)
    issue: IssueSpec = field(default_factory=IssueSpec)
    memory: MemorySpec = field(default_factory=MemorySpec)
    description: str = ""

    def __post_init__(self):
        object.__setattr__(self, "stages", tuple(self.stages))
        object.__setattr__(self, "paths", tuple(self.paths))

    # -- convenience queries -------------------------------------------------
    @property
    def opclasses(self):
        return tuple(path.opclass for path in self.paths)

    def stage_names(self):
        return tuple(stage.name for stage in self.stages)

    def path(self, opclass):
        for path in self.paths:
            if path.opclass == opclass:
                return path
        raise SpecError("spec %r has no path for operation class %r" % (self.name, opclass))

    # -- validation ----------------------------------------------------------
    def validate(self):
        """Check internal consistency; raises :class:`SpecError` on problems."""
        problems = []
        stage_names = self.stage_names()
        duplicate_stages = sorted(
            {name for name in stage_names if stage_names.count(name) > 1}
        )
        if duplicate_stages:
            problems.append(
                "stages: duplicate stage name(s) %s"
                % ", ".join(repr(name) for name in duplicate_stages)
            )
        for stage in self.stages:
            if stage.capacity is not None and (
                not isinstance(stage.capacity, int)
                or isinstance(stage.capacity, bool)
                or stage.capacity < 1
            ):
                problems.append(
                    "stages: stage %r capacity %r must be a positive integer "
                    "or None (unlimited)" % (stage.name, stage.capacity)
                )
            if (
                not isinstance(stage.delay, int)
                or isinstance(stage.delay, bool)
                or stage.delay < 0
            ):
                problems.append(
                    "stages: stage %r delay %r must be a non-negative integer"
                    % (stage.name, stage.delay)
                )
        if not self.paths:
            problems.append("paths: spec %r declares no operation-class paths" % self.name)

        known_opclasses = known_operation_classes()
        seen_opclasses = set()
        seen_subnets = {self.fetch.subnet}
        # Transition names must be globally unique (they key the statistics
        # counters and the structure-keyed generation caches); the fetch
        # transition's name is taken before any path is examined.
        seen_transitions = {self.fetch.name}
        for path in self.paths:
            if path.opclass not in known_opclasses:
                problems.append(
                    "paths: path declares unknown operation class %r%s "
                    "(known classes: %s)"
                    % (
                        path.opclass,
                        _suggest(path.opclass, known_opclasses),
                        ", ".join(known_opclasses),
                    )
                )
            if path.opclass in seen_opclasses:
                problems.append("paths: duplicate path for operation class %r" % path.opclass)
            seen_opclasses.add(path.opclass)
            if path.subnet_name in seen_subnets:
                problems.append("paths: duplicate sub-net name %r" % path.subnet_name)
            seen_subnets.add(path.subnet_name)
            if not path.stages:
                problems.append("paths: path %r has no stages" % path.opclass)
            keys = set(path.stages) | {"end"}
            for stage in path.stages:
                if stage not in stage_names:
                    problems.append(
                        "paths: path %r uses unknown stage %r%s"
                        % (path.opclass, stage, _suggest(stage, stage_names))
                    )
            for extra in path.extra_places:
                if extra.stage not in stage_names:
                    problems.append(
                        "paths: extra place %r of path %r uses unknown stage %r%s"
                        % (extra.key, path.opclass, extra.stage, _suggest(extra.stage, stage_names))
                    )
                if extra.key in keys:
                    problems.append(
                        "paths: extra place key %r of path %r collides with a stage"
                        % (extra.key, path.opclass)
                    )
                keys.add(extra.key)
            for transition in path.transitions:
                if transition.name in seen_transitions:
                    problems.append(
                        "paths: duplicate transition name %r (in path %r)"
                        % (transition.name, path.opclass)
                    )
                seen_transitions.add(transition.name)
                for ref in (
                    (transition.source, transition.target)
                    + transition.produces
                    + transition.consumes
                ):
                    if ref not in keys:
                        problems.append(
                            "paths: transition %r of path %r references unknown place %r%s"
                            % (transition.name, path.opclass, ref, _suggest(ref, sorted(keys)))
                        )

        for stage in self.hazards.front_flush_stages:
            if stage not in stage_names:
                problems.append(
                    "hazards.front_flush_stages: flush stage %r is not a declared stage%s"
                    % (stage, _suggest(stage, stage_names))
                )
        for stage in self.hazards.redirect_flush_stages:
            if stage not in stage_names:
                problems.append(
                    "hazards.redirect_flush_stages: flush stage %r is not a declared stage%s"
                    % (stage, _suggest(stage, stage_names))
                )
        for stage in self.hazards.forward_states:
            # A typo here would not fail at elaboration: can_read(state)
            # simply never matches and the bypass network silently vanishes.
            if stage not in stage_names:
                problems.append(
                    "hazards.forward_states: forward state %r is not a declared stage%s"
                    % (stage, _suggest(stage, stage_names))
                )
        if (
            self.hazards.s1_forward_state is not None
            and self.hazards.s1_forward_state not in stage_names
        ):
            problems.append(
                "hazards.s1_forward_state: s1 forward state %r is not a declared stage%s"
                % (self.hazards.s1_forward_state, _suggest(self.hazards.s1_forward_state, stage_names))
            )
        hooks_used = {
            hook
            for path in self.paths
            for transition in path.transitions
            for hook in transition.hooks
        }
        if "branch.resolve" in hooks_used and self.predictor.kind != "btb":
            problems.append(
                'predictor.kind: the "branch.resolve" hook resolves against a branch '
                'target buffer; declare PredictorSpec(kind="btb")'
            )
        if self.fetch.style not in ("sequential", "btb"):
            problems.append(
                "fetch.style: unknown fetch style %r (expected 'sequential' or 'btb')"
                % self.fetch.style
            )
        if self.fetch.style == "btb" and self.predictor.kind != "btb":
            problems.append('fetch.style: fetch style "btb" requires predictor kind "btb"')
        if self.fetch.capacity_stage and self.fetch.capacity_stage not in stage_names:
            problems.append(
                "fetch.capacity_stage: fetch capacity stage %r is not declared%s"
                % (self.fetch.capacity_stage, _suggest(self.fetch.capacity_stage, stage_names))
            )
        if self.fetch.stall_stage and self.fetch.stall_stage not in stage_names:
            problems.append(
                "fetch.stall_stage: fetch stall stage %r is not declared%s"
                % (self.fetch.stall_stage, _suggest(self.fetch.stall_stage, stage_names))
            )
        if self.predictor.kind not in (None, "static_not_taken", "btb"):
            problems.append(
                "predictor.kind: unknown predictor kind %r (expected None, "
                "'static_not_taken' or 'btb')" % self.predictor.kind
            )

        issue = self.issue
        if not isinstance(issue.width, int) or isinstance(issue.width, bool) or issue.width < 1:
            problems.append("issue.width: issue width %r is not a positive integer" % (issue.width,))
        elif not issue.multi:
            if issue.stage is not None or issue.ports:
                problems.append(
                    "issue.stage/issue.ports: only meaningful with issue width > 1"
                )
        else:
            if issue.stage is None:
                problems.append("issue.stage: multi-issue specs must declare the issue stage")
            elif issue.stage not in stage_names:
                problems.append(
                    "issue.stage: issue stage %r is not a declared stage%s"
                    % (issue.stage, _suggest(issue.stage, stage_names))
                )
            else:
                for path in self.paths:
                    # The in-order gate blocks younger instructions until every
                    # older one has issued; a path that bypasses the issue
                    # stage would starve the gate and deadlock the pipeline.
                    if issue.stage not in path.stages:
                        problems.append(
                            "issue.stage: path %r never visits issue stage %r"
                            % (path.opclass, issue.stage)
                        )
            port_names = set()
            ported_classes = set()
            for port in issue.ports:
                if port.name in port_names:
                    problems.append("issue.ports: duplicate issue port %r" % port.name)
                port_names.add(port.name)
                if (
                    not isinstance(port.count, int)
                    or isinstance(port.count, bool)
                    or not 1 <= port.count
                ):
                    problems.append(
                        "issue.ports: issue port %r count %r is not a positive integer"
                        % (port.name, port.count)
                    )
                elif port.count > issue.width:
                    problems.append(
                        "issue.ports: issue port %r count %d exceeds the issue width %d"
                        % (port.name, port.count, issue.width)
                    )
                if not port.classes:
                    problems.append(
                        "issue.ports: issue port %r constrains no operation class" % port.name
                    )
                for cls in port.classes:
                    if cls not in seen_opclasses:
                        problems.append(
                            "issue.ports: issue port %r names unknown operation class %r%s"
                            % (port.name, cls, _suggest(cls, sorted(seen_opclasses)))
                        )
                    if cls in ported_classes:
                        problems.append(
                            "issue.ports: operation class %r is constrained by more than "
                            "one issue port" % cls
                        )
                    ported_classes.add(cls)

        if isinstance(self.memory, MemorySpec):
            problems.extend("memory: %s" % problem for problem in self.memory.problems())
        else:
            problems.append("memory: must be a MemorySpec, got %r" % (self.memory,))

        if problems:
            raise SpecError(
                "invalid pipeline spec %r:\n  - %s" % (self.name, "\n  - ".join(problems))
            )
        return True

    # -- identity ------------------------------------------------------------
    def describe(self):
        """The spec as plain nested data (the canonical form that is hashed)."""
        return asdict(self)

    def fingerprint(self):
        """Stable content hash of the description.

        Two specs share a fingerprint exactly when their declarative content
        is identical.  Campaign runs key on it; the generation caches do
        not (they key on the elaborated net's structure).
        """
        canonical = json.dumps(self.describe(), sort_keys=True, default=str)
        return hashlib.sha256(("rcpn-spec-v1:" + canonical).encode("utf-8")).hexdigest()


def linear_path(opclass, stages, hooks=None, names=None, subnet=None):
    """Build an :class:`OpClassPathSpec` whose transitions form a linear chain.

    ``hooks`` maps a destination (stage name or ``"end"``) to the hook name
    (or tuple of hook names) attached to the transition entering it;
    ``names`` overrides per-destination transition names.  The default name
    is ``<subnet>.<source>_<destination>`` (the XScale naming idiom).
    """
    subnet_name = subnet or opclass
    hooks = hooks or {}
    names = names or {}
    stages = _tuple(stages)
    transitions = []
    route = list(stages) + ["end"]
    for source, destination in zip(route, route[1:]):
        transitions.append(
            TransitionSpec(
                name=names.get(destination) or "%s.%s_%s" % (subnet_name, source, destination),
                source=source,
                target=destination,
                hooks=hooks.get(destination, ()),
            )
        )
    return OpClassPathSpec(
        opclass=opclass,
        stages=stages,
        transitions=tuple(transitions),
        subnet=subnet_name,
    )
