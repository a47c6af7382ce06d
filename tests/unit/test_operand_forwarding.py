"""The forwarding helpers' one-read hazard check.

``operand_ready``/``operand_read`` test a pending writer against a set of
forward *places* built once by the elaborator, instead of comparing place
and stage names per forward state.  The set must accept exactly the places
the string-state protocol (``RegRef.can_read(state)``) accepts.
"""

import pytest

from repro.core import Const, InstructionToken, PipelineStage, Place, RegRef, RegisterFile
from repro.core.operands import _writer_in_state
from repro.describe import elaborate_net
from repro.describe.substrate import operand_read, operand_ready, operands_ready
from repro.processors import get_spec, processor_names


def writer_in(place, regfile, value=None):
    """A RegRef owned by a token in ``place`` holding regfile slot 0's write."""
    token = InstructionToken(instr=0, opclass="op")
    token.place = place
    writer = RegRef(regfile.register(0), token)
    writer.reserve_write()
    if value is not None:
        writer.value = value
    return writer


@pytest.mark.parametrize("model", processor_names())
def test_forward_places_match_the_string_state_protocol(model):
    spec = get_spec(model)
    net, _decoder, _core, _memory, semantics = elaborate_net(spec)
    regfile = RegisterFile("probe", 1)
    accepted = set()
    for place in net.places.values():
        writer = writer_in(place, regfile)
        if any(_writer_in_state(writer, state) for state in spec.hazards.forward_states):
            accepted.add(place)
        writer.release()
    assert semantics.forward_states == accepted
    assert bool(accepted) == bool(spec.hazards.forward_states)


@pytest.fixture
def bypass():
    """A register file, a forward place and a non-forward place."""
    regfile = RegisterFile("gpr", 1)
    regfile.data[0] = 5
    forward = Place("EX", PipelineStage("EX"))
    other = Place("ID", PipelineStage("ID"))
    return regfile, forward, other


def test_a_produced_value_in_a_forward_place_is_forwarded(bypass):
    regfile, forward, _other = bypass
    writer_in(forward, regfile, value=42)
    reader = RegRef(regfile.register(0))
    assert operand_ready(reader, {forward})
    assert operand_read(reader, {forward}) == 42
    assert reader.value == 42


def test_a_blocked_operand_is_not_ready_and_its_read_raises(bypass):
    regfile, forward, other = bypass
    writer = writer_in(other, regfile, value=42)
    reader = RegRef(regfile.register(0))
    assert not operand_ready(reader, {forward})
    assert not operands_ready([Const(1), reader], {forward})
    with pytest.raises(RuntimeError, match="operand_ready"):
        operand_read(reader, {forward})
    # In a forward place but without a produced value: still blocked.
    writer.token.place = forward
    writer._has_value = False
    assert not operand_ready(reader, {forward})
    with pytest.raises(RuntimeError):
        operand_read(reader, {forward})


def test_the_writer_itself_reads_the_architectural_value(bypass):
    regfile, _forward, other = bypass
    writer = writer_in(other, regfile, value=42)
    assert operand_ready(writer, set())
    assert operand_read(writer, set()) == 5


def test_a_constant_passes_both_helpers():
    const = Const(7)
    assert operand_ready(const, set())
    assert operands_ready([const, const], set())
    assert operand_read(const, set()) == 7
