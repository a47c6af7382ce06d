"""Elaboration: turn a :class:`PipelineSpec` into an executable RCPN model.

This is the bridge between the declarative layer and the simulator
generator: :func:`elaborate` validates the spec, instantiates the shared
ARM substrate (register files, operation classes, memory system, fetch
control), builds every place and transition the spec describes — resolving
hook names through :class:`~repro.describe.semantics.ArmSemantics` — and
wraps the result in the familiar :class:`~repro.describe.substrate.Processor`
facade.  The net keeps the spec it came from (``net.spec``); a report that
wants the spec's :meth:`~repro.describe.spec.PipelineSpec.fingerprint`
asks the spec for it, so a build hashes nothing.  The static-schedule and
codegen caches key on the net's structure, not on the spec.
"""

from __future__ import annotations

from repro.core.operands import place_in_state
from repro.describe.semantics import ArmSemantics
from repro.describe.spec import PipelineSpec
from repro.describe.substrate import (
    IssueControl,
    Processor,
    build_memory_config,
    make_arm_model_parts,
    make_decoder,
    resolve_engine_options,
)
from repro.memory.branch_predictor import BranchTargetBuffer, StaticNotTakenPredictor


def _build_predictor(spec, net):
    kind = spec.predictor.kind
    if kind is None:
        return None
    if kind == "static_not_taken":
        predictor = StaticNotTakenPredictor()
        net.add_unit(spec.predictor.unit_name or "predictor", predictor)
    elif kind == "btb":
        predictor = BranchTargetBuffer(entries=spec.predictor.btb_entries)
        net.add_unit(spec.predictor.unit_name or "btb", predictor)
    else:  # pragma: no cover - validate() rejects this earlier
        raise ValueError("unknown predictor kind %r" % kind)
    return predictor


def elaborate_net(spec, memory_config=None, semantics_class=ArmSemantics):
    """Elaborate ``spec`` into ``(net, decoder, core, memory, semantics)``.

    The memory hierarchy is built from the spec's declarative
    :class:`~repro.describe.spec.MemorySpec` unless an explicit
    ``memory_config`` (a runtime
    :class:`~repro.memory.memory_system.MemorySystemConfig`) overrides it —
    the escape hatch the hand-written baselines and a few tests use.  The
    returned net is fully wired and validated-by-construction; callers
    that want the usual facade should use :func:`elaborate` instead.
    """
    if not isinstance(spec, PipelineSpec):
        raise TypeError("elaborate expects a PipelineSpec, got %r" % (spec,))
    spec.validate()
    if memory_config is None:
        memory_config = build_memory_config(spec.memory)

    net, context, core, memory = make_arm_model_parts(
        spec.name, memory_config, operation_classes=spec.opclasses
    )
    predictor = _build_predictor(spec, net)

    for stage in spec.stages:
        net.add_stage(stage.name, capacity=stage.capacity, delay=stage.delay)

    decoder = make_decoder(net, context)

    # -- multi-issue arbitration ------------------------------------------
    issue = spec.issue
    issue_control = None
    if issue.multi:
        issue_control = IssueControl(issue.width, port_limits=issue.port_limits())
        net.add_unit("issue_control", issue_control)
    port_of = issue.port_of()

    semantics = semantics_class(
        spec,
        net=net,
        core=core,
        memory=memory,
        decoder=decoder,
        predictor=predictor,
        issue_control=issue_control,
    )

    # -- instruction-independent sub-net: fetch ---------------------------
    fetch_spec = spec.fetch
    fetch_net = net.add_subnet(fetch_spec.subnet)
    fetch_guard, fetch_action = semantics.fetch_hook(fetch_spec)
    capacity_stage = fetch_spec.capacity_stage or spec.stages[0].name
    net.add_transition(
        fetch_spec.name,
        fetch_net,
        guard=fetch_guard,
        action=fetch_action,
        capacity_stages=[capacity_stage],
        max_firings_per_cycle=issue.width,
    )

    # -- one sub-net per operation-class path -----------------------------
    for path in spec.paths:
        subnet = net.add_subnet(path.subnet_name, opclasses=(path.opclass,))
        places = {}
        for index, stage in enumerate(path.stages):
            places[stage] = net.add_place(stage, subnet, entry=(index == 0))
        places["end"] = net.add_place("end", subnet)
        for extra in path.extra_places:
            places[extra.key] = net.add_place(extra.stage, subnet, name=extra.name)
        pre_issue = (
            set(path.stages[: path.stages.index(issue.stage)])
            if issue_control is not None
            else set()
        )
        for tspec in path.transitions:
            guard, action = semantics.resolve(tspec.hooks)
            if issue_control is not None:
                source_stage = places[tspec.source].stage
                if source_stage.name == issue.stage:
                    # Every transition leaving the issue stage is an issue
                    # point: gate it on the per-cycle issue bandwidth (and
                    # the class's port, if one constrains it).
                    guard, action = semantics.issue_gate(
                        guard, action, port_of.get(path.opclass)
                    )
                elif source_stage.name in pre_issue:
                    # Front-end transfers must not overtake an older
                    # instruction (in-order issue).
                    guard = semantics.advance_gate(guard, source_stage)
            net.add_transition(
                tspec.name,
                subnet,
                source=places[tspec.source],
                target=places[tspec.target],
                guard=guard,
                action=action,
                priority=tspec.priority,
                produces=[places[key] for key in tspec.produces],
                consumes=[places[key] for key in tspec.consumes],
            )

    semantics.forward_states.update(
        place
        for place in net.places.values()
        if any(place_in_state(place, state) for state in spec.hazards.forward_states)
    )

    net.spec = spec
    return net, decoder, core, memory, semantics


def elaborate(
    spec,
    memory_config=None,
    engine_options=None,
    backend=None,
    semantics_class=ArmSemantics,
):
    """Elaborate ``spec`` and generate its cycle-accurate simulator.

    Returns a :class:`~repro.describe.substrate.Processor`; ``backend``
    selects the engine ("interpreted"/"generated", see
    :data:`~repro.core.engine.ENGINE_BACKENDS`), overriding
    ``engine_options.backend`` when given — the same contract as the
    hand-written model builders it replaces.  The generated backend's
    module memo keys on the net's structure, so rebuilding the same spec —
    or any spec of the same structure — re-uses its emitted module.
    """
    net, decoder, core, memory, _ = elaborate_net(
        spec,
        memory_config=memory_config,
        semantics_class=semantics_class,
    )
    options = resolve_engine_options(engine_options, backend)
    return Processor(net, decoder, core, memory, engine_options=options)
