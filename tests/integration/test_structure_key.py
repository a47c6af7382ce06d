"""The net's structure is the memo key, and the key is complete.

The static schedule and the emitted module are memoised in-process by
structure alone (``structure_signature`` for the schedule,
``codegen_key`` for the module).  A field the emitter reads but the key
misses would serve the clean build's module to a mutated net, whose
generated run would then leave the interpreted one.  Each case below
mutates one field of an elaborated strongarm net after the clean build's
module is memoised; the mutated net must get a module key of its own and
run on ``generated`` exactly as on ``interpreted``.  The schedule reads
no hook and no ``two_list`` flag, so only the structural mutations get a
schedule key of their own.
"""

import pytest

from repro.codegen import codegen_key
from repro.core import EngineOptions, InstructionToken, OperationClass, RCPN, generate_simulator
from repro.core.scheduler import StaticSchedule, structure_signature
from repro.describe import elaborate_net
from repro.describe.substrate import Processor
from repro.describe.templates import HookTemplate, bind, template_of
from repro.processors import build_processor, get_spec
from repro.workloads import get_workload

GENERATED = EngineOptions(backend="generated")


def _transition(net, name):
    return next(t for t in net.transitions if t.name == name)


def _set_delay(net):
    _transition(net, "alu.buffer").delay = 3


def _raise_priority(net):
    _transition(net, "branch.not_taken").priority = -1


def _mark_two_list(net):
    net.places["alu.EM"].two_list = True


def _plain_guard(net):
    transition = _transition(net, "alu.issue")
    template_guard = transition.guard
    transition.guard = lambda t, ctx: template_guard(t, ctx)


def _rebind_action(net):
    """``alu.buffer``'s action: the same template key, other text."""
    transition = _transition(net, "alu.buffer")
    template = template_of(transition.action, net.hook_env)
    other = HookTemplate(template.key, action=template.action + "\nt.delay_override = 2")
    _guard, transition.action = bind(other, net.hook_env)
    assert template_of(transition.action, net.hook_env) == other


#: mutation -> True when it changes the structure the schedule reads.
MUTATIONS = {
    "delay": (_set_delay, True),
    "priority": (_raise_priority, True),
    "two_list": (_mark_two_list, False),
    "plain_guard": (_plain_guard, False),
    "action_text": (_rebind_action, False),
}


def _outcome(processor, stats):
    return (
        stats.cycles,
        stats.instructions,
        stats.stalls,
        stats.squashed,
        dict(stats.retired_by_class),
        dict(stats.transition_firings),
        processor.register(0),
    )


def _run(net, decoder, core, memory, backend, program):
    processor = Processor(net, decoder, core, memory, engine_options=EngineOptions(backend=backend))
    processor.load_program(program)
    return _outcome(processor, processor.run())


@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
def test_mutated_net_gets_its_own_key_and_runs_as_interpreted(mutation):
    mutate, structural = MUTATIONS[mutation]
    program = get_workload("crc", scale=1).program
    clean = build_processor("strongarm", backend="generated")
    clean.load_program(program)
    clean_outcome = _outcome(clean, clean.run())
    clean_net = clean.net

    runs = {}
    for backend in ("generated", "interpreted"):
        net, decoder, core, memory, _semantics = elaborate_net(get_spec("strongarm"))
        mutate(net)
        assert (structure_signature(net) != structure_signature(clean_net)) is structural
        runs[backend] = _run(net, decoder, core, memory, backend, program)
        if backend == "generated":
            assert codegen_key(net, GENERATED) != codegen_key(clean_net, GENERATED)
    assert runs["generated"] == runs["interpreted"]
    if mutation == "delay":
        assert clean_outcome[0] == 7403
        assert runs["generated"][0] == 17789
    if mutation in ("delay", "action_text"):
        # The mutation shows in the run: a stale module would not.
        assert runs["generated"] != clean_outcome


def _net_routing(first, second):
    """Two sub-nets ``p``/``q``; ``p`` handles class ``first``, ``q`` ``second``.

    The generator emits five tokens of alternating class; ``p`` holds
    each token one cycle longer than ``q``.
    """
    net = RCPN("routing")
    net.add_stage("A", capacity=2)
    for name in ("x", "y"):
        net.add_operation_class(OperationClass(name, symbols={}))
    gen = net.add_subnet("gen")
    state = {"emitted": 0}
    for name, opclass, delay in (("p", first, 2), ("q", second, 1)):
        subnet = net.add_subnet(name, opclasses=(opclass,))
        entry = net.add_place("A", subnet, entry=True)
        net.add_place("end", subnet)
        net.add_transition(name + ".go", subnet, source=entry, target=name + ".end", delay=delay)

    def fetch_guard(_t, _ctx):
        return state["emitted"] < 5

    def fetch_action(_t, ctx):
        state["emitted"] += 1
        opclass = "xy"[state["emitted"] % 2]
        ctx.emit(InstructionToken(instr=state["emitted"], opclass=opclass, pc=4 * state["emitted"]))
        if state["emitted"] >= 5:
            ctx.stop("done")

    net.add_transition("fetch", gen, guard=fetch_guard, action=fetch_action, capacity_stages=["A"])
    return net


def test_nets_differing_only_in_subnet_classes_get_their_own_keys():
    straight, crossed = _net_routing("x", "y"), _net_routing("y", "x")
    assert structure_signature(straight) != structure_signature(crossed)
    assert codegen_key(straight, GENERATED) != codegen_key(crossed, GENERATED)

    first, second = StaticSchedule(straight), StaticSchedule(crossed)
    assert first.transitions_for(straight.place("p.A"), "x") == (_transition(straight, "p.go"),)
    assert second.transitions_for(crossed.place("p.A"), "x") == ()
    assert second.transitions_for(crossed.place("p.A"), "y") == (_transition(crossed, "p.go"),)

    for classes in (("x", "y"), ("y", "x")):
        runs = {}
        for backend in ("interpreted", "generated"):
            engine, _report = generate_simulator(_net_routing(*classes), EngineOptions(backend=backend))
            stats = engine.run(max_cycles=100)
            runs[backend] = (stats.cycles, dict(stats.transition_firings), stats.finish_reason)
        assert runs["generated"] == runs["interpreted"]
        assert runs["generated"][2] == "done"
