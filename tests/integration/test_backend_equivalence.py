"""Backend equivalence matrix: interpreted / generated.

Every engine backend is contractually bit-identical in every statistic
the simulator exposes.  This matrix enforces the contract for **every
model in the processor registry** across every workload the model
supports, comparing

* the run statistics (cycles, instructions, stalls, squashes,
  per-transition firing counts, finish reason),
* the architectural state (registers, flags), and
* the memory-system counters (per-level accesses/hits/misses **and**
  ``miss_cycles``, which the cache-model bugfix sweep of PR 5 pinned).

One parametrized run per (model, kernel) pair covers all backends at
once.  The budget test applies the contract to runs cut short by a cycle
or instruction budget, and the reset tests to a second run of one
processor: ``reset()`` must reproduce the first run exactly, keep the
emitted module, and recover from an interrupted run.
"""

import pytest

from repro.core.engine import ENGINE_BACKENDS
from repro.processors import build_processor, processor_names, supported_kernels
from repro.workloads import get_workload, workload_names

KERNELS = workload_names()

#: Every (model, kernel) pair the registry says is executable.
MODEL_KERNEL_PAIRS = [
    (model, kernel)
    for model in processor_names()
    for kernel in supported_kernels(model, KERNELS)
]


def run_backend(model, workload, backend):
    processor = build_processor(model, backend=backend)
    processor.load_program(workload.program)
    stats = processor.run(max_cycles=2_000_000)
    return processor, stats


def observable_state(processor, stats):
    """Everything a backend may not change: statistics + architecture + memory."""
    return {
        "cycles": stats.cycles,
        "instructions": stats.instructions,
        "stalls": stats.stalls,
        "squashed": stats.squashed,
        "generated_tokens": stats.generated_tokens,
        "retired_by_class": dict(stats.retired_by_class),
        "transition_firings": dict(stats.transition_firings),
        "finish_reason": stats.finish_reason,
        "registers": [processor.register(index) for index in range(16)],
        "flags": processor.flags(),
        "memory": processor.memory.statistics_summary(),
    }


def test_backend_matrix_covers_all_registered_backends():
    """The matrix below must not silently fall behind the engine registry."""
    assert set(ENGINE_BACKENDS) == {"interpreted", "generated"}


@pytest.mark.parametrize("model,kernel", MODEL_KERNEL_PAIRS)
def test_all_backends_bit_identical(model, kernel):
    workload = get_workload(kernel, scale=1)

    states = {
        backend: observable_state(*run_backend(model, workload, backend))
        for backend in ENGINE_BACKENDS
    }

    reference = states["interpreted"]
    assert reference["finish_reason"] == "halt"
    for backend in ENGINE_BACKENDS[1:]:
        assert states[backend] == reference, backend


@pytest.mark.parametrize(
    "budget,reason",
    [({"max_instructions": 300}, "max_instructions"), ({"max_cycles": 500}, "max_cycles")],
)
@pytest.mark.parametrize(
    "model", ["example", "strongarm", "strongarm-ds", "strongarm-l2", "xscale", "xscale-ds"]
)
def test_budgeted_runs_bit_identical(model, budget, reason):
    """A run stopped by its budget stops at the same point on every backend."""
    workload = get_workload("crc", scale=1)
    states = {}
    for backend in ENGINE_BACKENDS:
        processor = build_processor(model, backend=backend)
        processor.load_program(workload.program)
        stats = processor.run(**budget)
        states[backend] = observable_state(processor, stats)

    reference = states["interpreted"]
    assert reference["finish_reason"] == reason
    for backend in ENGINE_BACKENDS[1:]:
        assert states[backend] == reference, backend


@pytest.mark.parametrize("backend", ENGINE_BACKENDS)
def test_finished_run_reruns_as_a_no_op(backend):
    """Running a halted processor again must not advance it."""
    workload = get_workload("crc", scale=1)
    processor = build_processor("strongarm", backend=backend)
    processor.load_program(workload.program)
    first = observable_state(processor, processor.run(max_cycles=2_000_000))
    again = processor.run(max_cycles=2_000_000)

    assert again.finished
    assert observable_state(processor, again) == first


def test_generated_engine_reset_reuses_emitted_module():
    """Two back-to-back runs on one generated engine: identical stats, no re-emission.

    ``strongarm-c512`` + blowfish is the sweep point whose working set
    overflows the 512 B L1, so the second run only reproduces the first if
    ``reset()`` really restores the caches *and* the bound ``run_cycles``
    loop (places, stages, the context) survives untouched.
    """
    workload = get_workload("blowfish", scale=1)
    processor = build_processor("strongarm-c512", backend="generated")
    processor.load_program(workload.program)
    first = processor.run(max_cycles=2_000_000)
    first_state = observable_state(processor, first)
    assert first.finish_reason == "halt"
    run_cycles = processor.engine._run_cycles
    module = processor.engine.module

    processor.reset()
    processor.load_program(workload.program)
    second = processor.run(max_cycles=2_000_000)

    assert observable_state(processor, second) == first_state
    # reset() must keep the emitted artefacts: same module, same bound
    # run_cycles loop — re-running costs zero re-emissions.
    assert processor.engine._run_cycles is run_cycles
    assert processor.engine.module is module


def test_generated_engine_reset_mid_run_recovers():
    """Resetting after an interrupted run must leave no stale engine state."""
    workload = get_workload("crc", scale=1)
    processor = build_processor("strongarm", backend="generated")
    processor.load_program(workload.program)
    partial = processor.run(max_cycles=50)
    assert partial.finish_reason == "max_cycles"

    processor.reset()
    processor.load_program(workload.program)
    stats = processor.run(max_cycles=2_000_000)

    assert observable_state(processor, stats) == observable_state(
        *run_backend("strongarm", workload, "interpreted")
    )


@pytest.mark.parametrize("backend", ["interpreted", "generated"])
@pytest.mark.parametrize("kernel", ["crc", "adpcm"])
@pytest.mark.parametrize("model", ["strongarm", "xscale"])
def test_processor_reset_is_run_to_run_reproducible(model, kernel, backend):
    """``Processor.reset()`` must make re-runs bit-reproducible on every backend.

    One processor object, three runs of the same workload with a full reset
    in between: statistics and architectural state must match exactly (the
    caches, predictors and engine state all return to their initial state).
    """
    workload = get_workload(kernel, scale=1)
    processor = build_processor(model, backend=backend)

    states = []
    for _ in range(3):
        processor.reset()
        processor.load_program(workload.program)
        stats = processor.run(max_cycles=2_000_000)
        states.append(observable_state(processor, stats))
        assert stats.finish_reason == "halt"

    assert states[1] == states[0]
    assert states[2] == states[0]
