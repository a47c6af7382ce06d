"""A reused processor starts from the architectural state of a fresh one.

``Processor.reset()`` followed by ``load_program()`` must clear what the
previous run left behind: register values and flags (``RCPN.reset`` resets
every register file in place), the program's output
(``ProcessorCore.reset`` empties it) and the data it stored
(``MemorySystem.reset`` empties main memory).  Each program runs once on a fresh
processor and twice on a reused one, on both backends, for a single- and a
dual-issue model; the reused second run must match the fresh run.
"""

import pytest

from repro.core.engine import ENGINE_BACKENDS
from repro.isa.assembler import assemble
from repro.processors import build_processor

#: name -> (source, r1 and r2 after a fresh run, output of a fresh run)
PROGRAMS = {
    # A leftover r1 or Z flag changes the result.
    "counter": (
        """
main:
    add r1, r1, #1
    addeq r2, r2, #5
    cmp r1, #3
    halt
""",
        [1, 0],
        [],
    ),
    # A leftover data word counts up with every run.
    "memory": (
        """
main:
    mov r4, #4096
    ldr r1, [r4]
    add r1, r1, #1
    str r1, [r4]
    halt
""",
        [1, 0],
        [],
    ),
    # A leftover output list grows with every run.
    "output": (
        """
main:
    mov r0, #7
    swi #1
    halt
""",
        [0, 0],
        [7],
    ),
}


def run(processor, image):
    processor.load_program(image)
    stats = processor.run(max_cycles=10_000)
    assert stats.finish_reason == "halt"
    return {
        "registers": [processor.register(index) for index in range(16)],
        "flags": processor.flags(),
        "output": list(processor.core.output),
        "cycles": stats.cycles,
        "instructions": stats.instructions,
        "stalls": stats.stalls,
        "squashed": stats.squashed,
        "generated_tokens": stats.generated_tokens,
        "retired_by_class": dict(stats.retired_by_class),
        "transition_firings": dict(stats.transition_firings),
    }


@pytest.mark.parametrize("backend", ENGINE_BACKENDS)
@pytest.mark.parametrize("model", ["strongarm", "strongarm-ds"])
@pytest.mark.parametrize("program", sorted(PROGRAMS))
def test_reused_processor_matches_a_fresh_one(program, model, backend):
    source, r1_r2, output = PROGRAMS[program]
    image = assemble(source)
    fresh = run(build_processor(model, backend=backend), image)
    assert (fresh["registers"][1:3], fresh["output"]) == (r1_r2, output)
    reused = build_processor(model, backend=backend)
    run(reused, image)
    reused.reset()
    assert run(reused, image) == fresh
