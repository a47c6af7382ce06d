"""What the interpreted engine's one-frame cycle relies on, checked cycle by cycle.

``SimulationEngine.step`` visits only the places that are not end places,
trusts each stage's ``_occupancy`` in its inline capacity test, and
``IssueControl.may_advance`` answers without a scan when the source stage
holds one token.  These tests step the engine one cycle at a time and
assert, after every cycle, the facts those short-cuts assume.  They also
pin ``flush_younger``, which passes over empty places, against the full
place walk it replaced.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from repro.core import ReservationToken
from repro.core.engine import SimulationEngine
from repro.isa import assemble
from repro.processors import build_processor
from repro.workloads import SyntheticWorkloadGenerator, get_workload

SUITE_PATH = Path(__file__).resolve().parents[2] / "perfbench" / "suite.py"


def pool_programs(count):
    """The first ``count`` programs of the ``interp-dual-issue`` pool."""
    spec = importlib.util.spec_from_file_location("perfbench_suite", SUITE_PATH)
    suite = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = suite  # its dataclasses look their module up
    spec.loader.exec_module(suite)
    programs = suite.build_programs(suite.WORKLOADS["interp-dual-issue"], None)
    return programs[:count]


PROGRAMS = [("kernel-%s" % name, get_workload(name, 1).program) for name in ("crc", "compress")]
PROGRAMS += pool_programs(4)
MODELS = ("strongarm-ds", "xscale-ds", "strongarm")


def check_invariants(engine):
    """The facts the interpreted cycle's short-cuts rely on."""
    net = engine.net
    for stage in net.stages.values():
        resident = sum(len(place.tokens) + len(place.pending) for place in stage.places)
        if stage.is_end:
            assert resident == 0, "a token resides in an end place"
        else:
            assert stage._occupancy == resident, stage.name
    control = net.units.get("issue_control")
    if control is not None:
        assert control._issued <= control.width


@pytest.mark.parametrize("program_name,program", PROGRAMS, ids=[name for name, _ in PROGRAMS])
@pytest.mark.parametrize("model", MODELS)
def test_invariants_hold_after_every_cycle(model, program_name, program):
    processor = build_processor(model, backend="interpreted")
    processor.load_program(program)
    engine = processor.engine
    while not engine.finished():
        assert engine.cycle < 100_000, "%s did not finish" % program_name
        engine.step()
        check_invariants(engine)
    assert engine.stats.instructions > 0


def full_walk_flush_younger(self, seq):
    """``flush_younger`` as it was before it passed over empty places."""
    squashed = 0
    for place in self.net.places.values():
        if place.is_end:
            continue
        for token in list(place.tokens) + list(place.pending):
            if token.is_instruction:
                if token.seq > seq:
                    place.remove(token)
                    token.squashed = True
                    token.release_reservations()
                    squashed += 1
            else:
                producer = getattr(token, "producer_seq", None)
                if producer is not None and producer > seq:
                    place.remove(token)
    self.stats.squashed += squashed
    return squashed


def jump_heavy_program():
    """A synthetic loop in which every third instruction is a computed jump."""
    generator = SyntheticWorkloadGenerator(
        mix={"alu": 3, "load": 1, "branch": 1, "jump": 3}, body_length=24, iterations=6, seed=11
    )
    return assemble(generator.source())


@pytest.mark.parametrize("model", ["strongarm-ds", "xscale-ds"])
def test_flush_younger_skipping_empty_places_matches_the_full_walk(model, monkeypatch):
    program = jump_heavy_program()

    def run(flush_younger):
        calls = []

        def counted(self, seq):
            calls.append(seq)
            return flush_younger(self, seq)

        monkeypatch.setattr(SimulationEngine, "flush_younger", counted)
        processor = build_processor(model, backend="interpreted")
        processor.load_program(program)
        stats = processor.run(max_cycles=100_000)
        return calls, (
            stats.cycles, stats.instructions, stats.stalls, stats.squashed,
            stats.generated_tokens, dict(stats.retired_by_class),
            dict(stats.transition_firings), stats.finish_reason,
            [processor.register(index) for index in range(15)],
        )

    calls, result = run(SimulationEngine.flush_younger)
    reference_calls, reference = run(full_walk_flush_younger)
    assert result[7] == "halt"
    assert len(calls) > 10 and result[3] > 0  # deep redirects squashed something
    assert calls == reference_calls
    assert result == reference


def test_flush_younger_reaches_the_pending_list():
    """A two-list place holding only buffered tokens is not empty: a
    younger instruction and a reservation it parked are squashed there."""
    processor = build_processor("strongarm-ds", backend="interpreted")
    engine, decoder = processor.engine, processor.decoder
    elder, younger = (decoder.decode_word(0xE3A00001 + i, pc=4 * i) for i in range(2))
    place = engine.schedule.two_list_places[0]
    place.deposit(younger, 0, force=True)
    place.deposit(ReservationToken(producer_seq=younger.seq), 0, force=True)
    assert place.tokens == [] and len(place.pending) == 2
    assert engine.ctx.flush_younger(elder.seq) == 1
    assert younger.squashed and place.pending == [] and place.stage._occupancy == 0
