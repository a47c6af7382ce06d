"""Quickstart: model, generate and run a cycle-accurate simulator.

Builds the paper's Figure 4/5 example processor, assembles a small program,
runs the generated simulator and prints the statistics a cycle-accurate
simulator is used for (cycles, CPI, per-class retirement counts).

Run with:  python examples/quickstart.py
"""

from repro.isa import assemble
from repro.processors import build_example_processor

PROGRAM = """
; sum the numbers 1..10, then store the result
main:
    mov r0, #0          ; accumulator
    mov r1, #10         ; loop counter
    mov r2, #0x8000     ; output buffer
loop:
    add r0, r0, r1
    subs r1, r1, #1
    bgt loop
    str r0, [r2, #0]
    ldr r3, [r2, #0]
    swi #1
    halt
"""


def main():
    program = assemble(PROGRAM)
    processor = build_example_processor()

    print("model:", processor.net.name)
    print("structure:", processor.complexity())
    print("generated simulator:", processor.generation_report.summary())
    print()

    processor.load_program(program)
    stats = processor.run()

    print("finished:", stats.finish_reason)
    print("cycles:", stats.cycles)
    print("instructions:", stats.instructions)
    print("CPI: %.2f" % stats.cpi)
    print("retired by class:", dict(stats.retired_by_class))
    print("r0 (sum of 1..10):", processor.register(0))
    print("r3 (loaded back):", processor.register(3))
    print("data cache:", processor.cache_statistics()["dcache"])

    # The same model can run on the generated engine: the model is emitted
    # once as straight-line Python source, and the statistics are
    # bit-identical to the interpreted run above.
    generated = build_example_processor(backend="generated")
    generated.load_program(program)
    generated_stats = generated.run()
    print()
    print("generated backend:", generated.backend)
    print("codegen cache:", generated.generation_report.codegen_cache)
    print("cycles match interpreted run:", generated_stats.cycles == stats.cycles)


if __name__ == "__main__":
    main()
