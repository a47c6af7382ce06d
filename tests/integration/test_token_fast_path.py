"""Operand symbols of decoded tokens never fall through ``__getattr__``.

Decoded tokens hold each operand in a slot of their per-operation-class
token class, so a whole run on any model and engine must resolve every
``t.s1``/``t.d``/``t.writes_flags`` by a slot read.  A counting
``InstructionToken.__getattr__`` makes a fall-back visible; the run must
also keep its golden statistics.
"""

import pytest

from repro.core.engine import ENGINE_BACKENDS
from repro.core.token import InstructionToken
from repro.processors import build_processor
from repro.processors.registry import processor_names
from repro.workloads import get_workload

from test_golden_stats import GOLDEN

KERNEL = "crc"

#: (cycles, instructions, stalls, final r0) of crc for models without a
#: row in the golden table, recorded on both engines before tokens were
#: slotted.
EXTRA_GOLDEN = {
    "arm7-mini": (6615, 4479, 1313, 4223799965),
    "xscale-deep": (9175, 4479, 14763, 4223799965),
}


def golden_row(model):
    return GOLDEN.get((model, KERNEL)) or EXTRA_GOLDEN[model]


@pytest.mark.parametrize("backend", ENGINE_BACKENDS)
@pytest.mark.parametrize("model", processor_names())
def test_run_resolves_every_symbol_from_a_slot(model, backend, monkeypatch):
    fallbacks = []
    original = InstructionToken.__getattr__

    def counting_getattr(self, name):
        fallbacks.append(name)
        return original(self, name)

    monkeypatch.setattr(InstructionToken, "__getattr__", counting_getattr)
    processor = build_processor(model, backend=backend)
    processor.load_program(get_workload(KERNEL, scale=1).program)
    stats = processor.run(max_cycles=2_000_000)

    assert fallbacks == []
    assert stats.finish_reason == "halt"
    assert (stats.cycles, stats.instructions, stats.stalls, processor.register(0)) == (
        golden_row(model)
    )


def test_counting_getattr_sees_a_hand_built_token(monkeypatch):
    """The probe itself works: a dictionary-backed token does fall through."""
    fallbacks = []
    original = InstructionToken.__getattr__

    def counting_getattr(self, name):
        fallbacks.append(name)
        return original(self, name)

    monkeypatch.setattr(InstructionToken, "__getattr__", counting_getattr)
    token = InstructionToken(instr=None, opclass="alu", operands={"d": 1})
    assert token.d == 1
    assert fallbacks == ["d"]
