"""The generated engine runs stretches of cycles; every run still stops alike.

``SimulationEngine.run`` hands the generated engine whole busy stretches
(``GeneratedEngine._advance`` -> the emitted ``run_cycles``), which return
whenever one of ``run``'s checks could change its answer.  These runs cut
the loop at every point those checks care about — an instruction limit,
``max_cycles`` chunks of 1 and of 7 cycles, a halt requested in the middle
of a busy stretch — and the interpreted engine, which steps cycle by
cycle, is the oracle: cycles, instructions, stalls, firings,
``finish_reason`` and registers must all agree.
"""

import pytest

from repro.core import EngineOptions, generate_simulator
from repro.processors import build_processor
from repro.workloads import get_workload

MODELS = ("strongarm", "xscale")


def observable(processor, stats):
    return {
        "cycles": stats.cycles,
        "instructions": stats.instructions,
        "stalls": stats.stalls,
        "transition_firings": dict(stats.transition_firings),
        "finish_reason": stats.finish_reason,
        "registers": [processor.register(index) for index in range(16)],
    }


def loaded(model, backend):
    processor = build_processor(model, backend=backend)
    processor.load_program(get_workload("crc", scale=1).program)
    return processor


def both_backends(run):
    """``run(backend) -> observable`` on both backends; the results must agree."""
    reference = run("interpreted")
    assert run("generated") == reference
    return reference


@pytest.mark.parametrize("model", MODELS)
def test_instruction_limit(model):
    def run(backend):
        processor = loaded(model, backend)
        partial = observable(processor, processor.run(max_instructions=1000))
        return partial, observable(processor, processor.run())

    partial, whole = both_backends(run)
    assert partial["finish_reason"] == "max_instructions"
    assert partial["instructions"] == 1000
    assert whole["finish_reason"] == "halt"


@pytest.mark.parametrize("chunk", (1, 7))
@pytest.mark.parametrize("model", MODELS)
def test_cycle_chunks(model, chunk):
    def run(backend):
        processor = loaded(model, backend)
        limit = 0
        while True:
            limit += chunk
            stats = processor.run(max_cycles=limit)
            if stats.finish_reason != "max_cycles":
                return observable(processor, stats)
            assert stats.cycles == limit

    def run_whole(backend):
        processor = loaded(model, backend)
        return observable(processor, processor.run())

    chunked = both_backends(run)
    assert chunked == run_whole("interpreted")
    assert chunked["finish_reason"] == "halt"


def probed(model, backend, after):
    """A processor whose ``after``-th ALU retirement halts fetch and requests a stop."""
    processor = loaded(model, backend)
    net = processor.net
    transition = [t for t in net.transitions if t.name.startswith("alu.")][-1]
    base = transition.action
    calls = [0]

    def probe(token, ctx):
        if base is not None:
            base(token, ctx)
        calls[0] += 1
        if calls[0] == after:
            processor.core.halt()
            ctx.stop("probe")

    transition.action = probe
    # Rebind the engine so the generated backend's emitted loop calls the probe.
    processor.engine, _report = generate_simulator(net, EngineOptions(backend=backend))
    return processor


@pytest.mark.parametrize("model", MODELS)
def test_halt_requested_mid_stretch(model):
    def run(backend):
        processor = probed(model, backend, after=300)
        stats = processor.run()
        return dict(observable(processor, stats), retired_alu=stats.retired_by_class["alu"])

    stopped = both_backends(run)
    assert stopped["finish_reason"] == "probe"
    assert stopped["retired_alu"] >= 300
    full = loaded(model, "interpreted")
    assert stopped["instructions"] < full.run().instructions
