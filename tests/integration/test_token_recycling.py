"""Recycling retired instruction tokens through their decode-cache entry.

On the generated engine a decoded token that retires into an end place is
appended to its :class:`~repro.core.decoder.DecodedTemplate`'s free list,
and a later fetch of the same word renews it in place instead of making a
new token.  These tests pin the safety side of that contract:

* after every registered model runs every kernel it supports on
  ``generated``, every free-listed token is out of the pipeline
  (``place is None``), holds no write reservation, is no register file's
  pending writer, is not squashed and is listed once;
* the same runs on ``interpreted`` — the allocate-fresh oracle — leave
  every free list empty;
* hand-built tokens are never recycled;
* on crc, fresh tokens are a small fraction of fetches.

That recycling changes no statistic is the equivalence matrix's job
(``test_backend_equivalence.py``); the renewal itself is checked slot by
slot in ``test_token_factory_oracle.py``.
"""

import pytest

from repro.core import EngineOptions, InstructionToken, OperationClass, RCPN, generate_simulator
from repro.core.decoder import InstructionDecoder
from repro.processors import build_processor, processor_names, supported_kernels
from repro.workloads import get_workload, workload_names


def run(model, kernel, backend):
    processor = build_processor(model, backend=backend)
    processor.load_program(get_workload(kernel, scale=1).program)
    stats = processor.run(max_cycles=2_000_000)
    assert stats.finish_reason == "halt"
    return processor, stats


def free_tokens(processor):
    """Every free-listed token of ``processor``'s decode cache, with its template."""
    return [
        (template, token)
        for template in processor.decoder._cache.values()
        for token in template.free
    ]


def pending_writers(processor):
    """The ids of every RegRef some register file holds as its pending writer."""
    return {
        id(writer)
        for regfile in processor.net.register_files.values()
        for writer in regfile.writers
        if writer is not None
    }


@pytest.mark.parametrize("model", processor_names())
def test_free_listed_tokens_are_retired_and_hold_nothing(model):
    for kernel in supported_kernels(model, workload_names()):
        processor, stats = run(model, kernel, "generated")
        free = free_tokens(processor)
        assert free, "%s/%s recycled nothing" % (model, kernel)
        assert len({id(token) for _template, token in free}) == len(free)
        writers = pending_writers(processor)
        for template, token in free:
            assert token.template is template
            assert token.place is None
            assert not token.squashed
            for ref in token.regrefs:
                assert ref.token is token
                assert not ref._reserved
                assert id(ref) not in writers
        # A free-listed token retired, so it cannot outnumber the retirements.
        assert len(free) <= stats.instructions


@pytest.mark.parametrize("model", processor_names())
def test_interpreted_engine_never_recycles(model):
    for kernel in supported_kernels(model, workload_names()):
        processor, _stats = run(model, kernel, "interpreted")
        assert processor.decoder._cache
        assert free_tokens(processor) == []


def hand_built_net(count):
    """fetch emits ``count`` hand-built tokens, one per cycle, through A -> B -> end."""
    net = RCPN("hand-built")
    net.add_stage("A", capacity=1, delay=1)
    net.add_stage("B", capacity=1, delay=1)
    net.add_operation_class(OperationClass("op", symbols={}))
    gen = net.add_subnet("gen")
    sub = net.add_subnet("op", opclasses=("op",))
    place_a = net.add_place("A", sub, entry=True)
    place_b = net.add_place("B", sub)
    place_end = net.add_place("end", sub)
    made = []

    def fetch_guard(_t, _ctx):
        return len(made) < count

    def fetch_action(_t, ctx):
        token = InstructionToken(instr=len(made), opclass="op", pc=4 * len(made))
        made.append(token)
        ctx.emit(token)

    net.add_transition("fetch", gen, guard=fetch_guard, action=fetch_action, capacity_stages=["A"])
    net.add_transition("ab", sub, source=place_a, target=place_b)
    net.add_transition("bend", sub, source=place_b, target=place_end)
    return net, made


def test_hand_built_tokens_are_never_recycled():
    net, made = hand_built_net(5)
    engine, _report = generate_simulator(net, EngineOptions(backend="generated"))
    stats = engine.run(max_cycles=100)
    assert stats.instructions == 5
    assert len({id(token) for token in made}) == 5
    for token in made:
        assert token.template is None
        assert token.place is None


def test_crc_makes_few_fresh_tokens(monkeypatch):
    """Most crc fetches renew a retired token; fresh ``make`` calls are few.

    A fetch makes a fresh token only for a word's first instance, for
    another instance while the word's earlier ones are all in flight, or
    in place of a squashed (wrong-path) token, which is never recycled.
    """
    made = [0]
    original = InstructionDecoder._build_template

    def counting(self, word):
        template = original(self, word)
        make = template.make

        def counted(template, pc, seq):
            made[0] += 1
            return make(template, pc, seq)

        template.make = counted
        return template

    monkeypatch.setattr(InstructionDecoder, "_build_template", counting)
    processor, stats = run("strongarm", "crc", "generated")
    fetches = processor.decoder.hits + processor.decoder.misses
    words = len(processor.decoder._cache)
    assert fetches > 1000
    assert words <= made[0] <= stats.squashed + 2 * words
    assert made[0] < fetches / 5
