"""The multi-issue gates as schedule data (``repro.core.scheduler.issue_plan``).

Both engines test each transition's issue or advance gate inline, over the
program-order links :meth:`IssueControl.note_fetch` sets (``token.prev``).
These tests pin that rule against the two it replaced, at every gate
evaluation of real runs: the full scan of the source stage for an elder
(advance) and the fetch-order queue's oldest-live token (issue).  They also
check that an issue cuts the link (a retired token is collectable), that a
deadlock report names the gate that blocks, and that the memos key on the
plan.
"""

import dataclasses
import gc
import importlib.util
import sys
import weakref
from collections import deque
from pathlib import Path

import pytest

from repro.codegen.cache import codegen_key
from repro.core import InstructionToken
from repro.core.engine import EngineOptions, SimulationEngine
from repro.core.exceptions import SimulationError
from repro.core.scheduler import structure_signature
from repro.describe import IssueControl, elaborate
from repro.describe.semantics import ArmSemantics
from repro.isa import assemble
from repro.processors import build_processor, get_spec
from repro.workloads import get_workload, workload_names

SUITE_PATH = Path(__file__).resolve().parents[2] / "perfbench" / "suite.py"
MODELS = ("strongarm-ds", "xscale-ds")
BACKENDS = ("interpreted", "generated")


def pool_programs():
    """The 24 programs of the ``interp-dual-issue`` pool."""
    spec = importlib.util.spec_from_file_location("perfbench_suite", SUITE_PATH)
    suite = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = suite  # its dataclasses look their module up
    spec.loader.exec_module(suite)
    return suite.build_programs(suite.WORKLOADS["interp-dual-issue"], None)


PROGRAMS = [(name, get_workload(name, 1).program) for name in workload_names()] + pool_programs()


def full_scan_may_advance(token, source_stage):
    """The advance rule as a scan of every place of the stage for an elder."""
    for place in source_stage.places:
        for resident in place.tokens + place.pending:
            if resident.is_instruction and resident.seq < token.seq:
                return False
    return True


class FetchOrder:
    """The issue rule before the links: a queue of the fetched tokens, in
    fetch order, whose oldest live (not squashed, not issued) token may
    issue.  Each entry keeps the token's fetch ``seq``: a token recycled
    for a later fetch has retired, so its old entry is gone."""

    def __init__(self):
        self.order = deque()

    def note_fetch(self, token):
        self.order.append((token, token.seq))

    def oldest_live(self):
        order = self.order
        while order:
            token, seq = order[0]
            if token.seq == seq and not token.squashed and "issued" not in token.annotations:
                return token
            order.popleft()
        return None


@pytest.mark.parametrize("program_name,program", PROGRAMS, ids=[name for name, _ in PROGRAMS])
@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("backend", BACKENDS)
def test_every_gate_evaluation_answers_as_the_rules_it_replaced(backend, model, program_name, program, monkeypatch):
    """Both engines read a token's link exactly where a gate needs it:
    the issue gate once width and port admit the token, the advance gate
    once the source stage holds more than one token.  Each such read is
    checked against the full scan or the fetch-order queue."""
    link = InstructionToken.__dict__["prev"]
    fetch_order = FetchOrder()
    checked = {"issue": 0, "advance": 0}
    checking = []

    def check(token):
        place = token.place
        if place is None or token.squashed:
            return  # note_fetch walking back over a squashed token
        gate = place.dispatch[token.opclass][0].issue_plan
        control = processor.net.units["issue_control"]
        checking.append(token)
        try:
            if gate[0] == "issue":
                # Width and port admitted the token (it is reading its
                # link), so the arbiter's answer is the order rule's.
                assert control.may_issue(token, None) == (fetch_order.oldest_live() is token)
            else:
                assert control.may_advance(token, gate[1]) == full_scan_may_advance(token, gate[1])
        finally:
            checking.pop()
        checked[gate[0]] += 1

    def read_link(token):
        if not checking:
            check(token)
        return link.__get__(token)

    note_fetch = IssueControl.note_fetch

    def recording_note_fetch(self, token):
        note_fetch(self, token)
        fetch_order.note_fetch(token)

    monkeypatch.setattr(InstructionToken, "prev", property(read_link, link.__set__))
    monkeypatch.setattr(IssueControl, "note_fetch", recording_note_fetch)
    processor = build_processor(model, backend=backend)
    processor.load_program(program)
    stats = processor.run(max_cycles=1_000_000)
    assert stats.finish_reason == "halt"
    assert checked["issue"] > 0 and checked["advance"] > 0


def test_an_issued_and_retired_token_is_not_kept_alive(monkeypatch):
    """Issuing cuts the token's link, so the interpreted engine, which
    does not recycle tokens, lets a retired one go."""
    retired = []
    retire = SimulationEngine._retire

    def recording(self, token):
        if token.is_instruction and not retired:
            assert "issued" in token.annotations
            retired.append(weakref.ref(token))
        retire(self, token)

    monkeypatch.setattr(SimulationEngine, "_retire", recording)
    processor = build_processor("strongarm-ds", backend="interpreted")
    processor.load_program(get_workload("crc", 1).program)
    assert processor.run().finish_reason == "halt"
    gc.collect()
    assert retired and retired[0]() is None


class StuckMultiply(ArmSemantics):
    """``mul.issue`` whose guard never holds: a multiply stalls at issue."""

    def _install_hooks(self):
        super()._install_hooks()
        self.register("mul.issue", lambda t, ctx: False, self.hook("mul.issue").action)


STALLED_ELDER = """
main:
    mov r1, #3
    mul r0, r1, r1
    mov r3, #1
    mov r4, #2
    halt
"""


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_deadlock_names_the_issue_gate_a_stalled_elder_closes(backend):
    processor = elaborate(
        get_spec("strongarm-ds"),
        engine_options=EngineOptions(backend=backend, stall_limit=50),
        semantics_class=StuckMultiply,
    )
    processor.load_program(assemble(STALLED_ELDER))
    with pytest.raises(SimulationError) as error:
        processor.run(max_cycles=10_000)
    message = str(error.value)
    assert "mul.DE pc=0x4 opclass=mul seq=1" in message
    assert "blocked by guard mul.issue" in message
    assert "alu.DE pc=0x8 opclass=alu seq=2" in message
    assert "blocked by issue alu.issue (order)" in message

    engine = processor.engine
    younger = processor.net.place("alu.DE").tokens[0]
    issue = processor.net.place("alu.DE").dispatch["alu"][0]
    assert engine.blocked_by(issue, younger) == ("issue", issue, "order")


def test_the_blocked_conjunct_names_width_port_and_advance():
    processor = build_processor("strongarm-ds")
    engine, net = processor.engine, processor.net
    control = net.units["issue_control"]
    tokens = [processor.decoder.decode_word(0xE5910000, pc=4 * index) for index in range(3)]  # ldr r0, [r1]
    for token in tokens:
        control.note_fetch(token)
    for token in tokens[:2]:
        net.place("mem.FD").deposit(token, 0)
    net.place("mem.DE").deposit(tokens[2], 0)
    advance = net.place("mem.FD").dispatch["mem"][0]
    issue = net.place("mem.DE").dispatch["mem"][0]
    assert engine.blocked_by(advance, tokens[1]) == ("advance", net.stage("FD"))
    assert engine.blocked_by(advance, tokens[0]) is None
    control.note_issue(tokens[0], None, "dmem")
    control.note_issue(tokens[1], None)
    assert engine.blocked_by(issue, tokens[2]) == ("issue", issue, "width")
    control.new_cycle()
    control.note_issue(tokens[0], None, "dmem")
    assert engine.blocked_by(issue, tokens[2]) == ("issue", issue, "port")


def with_issue(spec, **changes):
    return dataclasses.replace(spec, issue=dataclasses.replace(spec.issue, **changes))


@pytest.mark.parametrize(
    "variant",
    [
        {"width": 3},
        {"ports": ({"count": 2},)},
    ],
    ids=["width", "port-limit"],
)
def test_specs_differing_only_in_the_issue_discipline_get_their_own_schedule_and_module(variant):
    base = get_spec("strongarm-ds")
    if "ports" in variant:
        (port,) = base.issue.ports
        other = with_issue(base, ports=(dataclasses.replace(port, **variant["ports"][0]),))
    else:
        other = with_issue(base, **variant)
    first = build_processor("strongarm-ds", backend="generated")
    second = elaborate(other, backend="generated")
    plans = [
        [t.issue_plan for t in processor.net.transitions]
        for processor in (first, second)
    ]
    assert plans[0] != plans[1]
    assert structure_signature(first.net) != structure_signature(second.net)
    options = EngineOptions(backend="generated")
    assert codegen_key(first.net, options) != codegen_key(second.net, options)
    assert first.engine.source != second.engine.source
