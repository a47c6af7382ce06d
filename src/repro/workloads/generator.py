"""Synthetic workload generation.

Besides the six named kernels, tests and ablation benchmarks need programs
with a controllable instruction mix (e.g. "90% ALU, 10% branches" to stress
the dispatch tables, or "50% loads" to stress the cache model).  The
generator below emits assembly with the requested mix; programs always
terminate because the only backward branch is the outer loop counter.
"""

from __future__ import annotations

import random

from repro.isa.assembler import assemble
from repro.workloads.kernels import DATA_BASE


class SyntheticWorkloadGenerator:
    """Generate loop-shaped programs with a configurable instruction mix.

    ``mix`` maps instruction categories (``alu``, ``mul``, ``load``,
    ``store``, ``branch``, ``jump``) to relative weights.  ``body_length``
    instructions are drawn per loop iteration and the loop runs
    ``iterations`` times.  The ``jump`` category emits a computed PC write
    (``mov pc, r9``) over one wrong-path filler instruction — the only way
    to exercise a model's deep-redirect (writeback-time) control transfer,
    which ordinary branches resolve too early to reach.  The opt-in
    ``datapath`` category emits a flag-setting logical operation on a
    rotated immediate or a shifted register (``ands``/``orrs``/``eors``/
    ``movs``) followed by a flag consumer (``adc``/``sbc``/``movcs``/
    ``addvs``), so the shifter carry-out reaches architectural state.
    """

    CATEGORIES = ("alu", "mul", "load", "store", "branch", "jump", "datapath")

    def __init__(self, mix=None, body_length=32, iterations=64, seed=1):
        self.mix = dict(mix or {"alu": 6, "mul": 1, "load": 2, "store": 1, "branch": 2})
        unknown = set(self.mix) - set(self.CATEGORIES)
        if unknown:
            raise ValueError("unknown instruction categories: %s" % ", ".join(sorted(unknown)))
        self.body_length = body_length
        self.iterations = iterations
        self.seed = seed

    def _choose(self, rng):
        categories = sorted(self.mix)
        weights = [self.mix[c] for c in categories]
        return rng.choices(categories, weights=weights, k=1)[0]

    def _emit(self, category, rng, label_counter, index):
        # r0..r5 are scratch data registers, r8 is the data pointer,
        # r9 is the jump-target scratch, r11 is the loop counter and must
        # not be clobbered.  ``index`` is the absolute instruction index the
        # first emitted instruction will occupy (needed to compute jump
        # targets).
        reg = lambda: "r%d" % rng.randint(0, 5)
        if category == "alu":
            op = rng.choice(("add", "sub", "eor", "orr", "and"))
            return ["    %s %s, %s, %s" % (op, reg(), reg(), reg())]
        if category == "datapath":
            if rng.random() < 0.5:
                # An 8-bit immediate rotated right by an even amount.
                imm8, rotation = rng.randint(1, 255), 2 * rng.randint(1, 15)
                operand = "#%d" % (((imm8 >> rotation) | (imm8 << (32 - rotation))) & 0xFFFFFFFF)
            else:
                shift = rng.choice(("lsl", "lsr", "asr", "ror"))
                operand = "%s, %s #%d" % (reg(), shift, rng.randint(1, 31))
            op = rng.choice(("ands", "orrs", "eors", "movs"))
            registers = reg() if op == "movs" else "%s, %s" % (reg(), reg())
            producer = "    %s %s, %s" % (op, registers, operand)
            consumer = rng.choice(
                (
                    "    adc%s %s, %s, %s" % (rng.choice(("", "s")), reg(), reg(), reg()),
                    "    sbc%s %s, %s, #%d" % (rng.choice(("", "s")), reg(), reg(), rng.randint(0, 64)),
                    "    movcs %s, #%d" % (reg(), rng.randint(0, 255)),
                    "    addvs %s, %s, #%d" % (reg(), reg(), rng.randint(1, 64)),
                )
            )
            return [producer, consumer]
        if category == "mul":
            return ["    mul %s, %s, %s" % (reg(), reg(), reg())]
        if category == "load":
            offset = 4 * rng.randint(0, 15)
            return ["    ldr %s, [r8, #%d]" % (reg(), offset)]
        if category == "store":
            offset = 4 * rng.randint(0, 15)
            return ["    str %s, [r8, #%d]" % (reg(), offset)]
        if category == "jump":
            # A computed PC write: resolved at writeback, deep in the pipe,
            # so the wrong-path filler is fetched (and must be squashed by
            # the model's backend redirect) before fetch lands on the
            # target.  Executing the filler corrupts a scratch register and
            # diverges from the functional reference immediately.
            target = reg()
            return [
                "    mov r9, #%d" % (4 * (index + 3)),
                "    mov pc, r9",
                "    add %s, %s, #64" % (target, target),
            ]
        # branch: a short forward skip whose outcome depends on data.
        label = "skip_%d" % label_counter
        target = reg()
        return [
            "    cmp %s, #%d" % (target, rng.randint(0, 64)),
            "    ble %s" % label,
            "    add %s, %s, #1" % (target, target),
            "%s:" % label,
        ]

    def source(self):
        """Assembly text of the synthetic program."""
        rng = random.Random(self.seed)
        lines = [
            "; synthetic workload (seed=%d)" % self.seed,
            "main:",
            "    mov r8, #%d" % DATA_BASE,
            "    mov r11, #%d" % self.iterations,
            "    mov r0, #1",
            "    mov r1, #2",
            "    mov r2, #3",
            "    mov r3, #5",
            "    mov r4, #7",
            "    mov r5, #11",
            "loop:",
        ]
        label_counter = 0
        # Instruction index of the next emitted instruction (the prologue
        # above holds eight instructions; labels and comments do not count).
        index = sum(1 for line in lines if line.startswith("    "))
        for _ in range(self.body_length):
            category = self._choose(rng)
            emitted = self._emit(category, rng, label_counter, index)
            if category == "branch":
                label_counter += 1
            index += sum(1 for line in emitted if line.startswith("    "))
            lines.extend(emitted)
        lines.extend(
            [
                "    subs r11, r11, #1",
                "    bgt loop",
                "    swi #1",
                "    halt",
            ]
        )
        return "\n".join(lines) + "\n"

    def program(self):
        """The assembled synthetic program."""
        return assemble(self.source())
