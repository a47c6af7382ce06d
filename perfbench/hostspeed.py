"""Host-speed calibration for end-to-end host times.

On a shared host, other tenants slow every Python thread by up to ~40% for
tens of seconds at a time, in CPU time as much as in wall time; one
benchmark run cannot average that away.  So every measured stretch (a
chunk of a simulation, a set-up phase) is preceded by a fixed piece of
pure-Python work of the same flavour as the simulator (slotted objects,
attribute reads, small dicts and lists, integer arithmetic), and the
stretch's host time is divided by how slow that work ran compared with
:data:`REFERENCE_NS_PER_ITERATION`.  The result is host time on a host of
reference speed: a slowdown that hits both the calibration and the
simulator cancels.

This module imports nothing from ``repro``: a change to the program cannot
move the calibration.  Changing the work or the reference constant changes
every normalised figure, so doing that is a change to the benchmark.
"""

from __future__ import annotations

import time

#: Nanoseconds one iteration of :func:`work` takes on the reference host.
REFERENCE_NS_PER_ITERATION = 600.0
#: Calibration time as a share of the run it calibrates.
SHARE = 0.2
MIN_ITERATIONS = 5_000
MAX_ITERATIONS = 200_000


class _Reg:
    __slots__ = ("value", "writer")

    def __init__(self):
        self.value = 0
        self.writer = None


class _Tok:
    __slots__ = ("op", "a", "b", "d", "notes")

    def __init__(self, op, a, b, d):
        self.op = op
        self.a = a
        self.b = b
        self.d = d
        self.notes = {}


_PROGRAM = [(i % 5, (i * 3) % 16, (i * 7) % 16, (i * 11) % 16) for i in range(64)]


def work(iterations):
    """A fixed toy pipeline step, ``iterations`` times; returns a checksum."""
    regs = [_Reg() for _ in range(16)]
    memory = {}
    done = 0
    for i in range(iterations):
        token = _Tok(*_PROGRAM[i & 63])
        a = regs[token.a]
        b = regs[token.b]
        if a.writer is None and b.writer is None:
            if token.op == 0:
                value = a.value + b.value
            elif token.op == 1:
                value = a.value ^ b.value
            elif token.op == 2:
                value = memory.get(a.value & 1023, 0)
            elif token.op == 3:
                memory[b.value & 1023] = a.value
                value = b.value
            else:
                value = a.value * 3 + 1
            token.notes["result"] = value & 0xFFFFFFFF
            regs[token.d].value = token.notes["result"]
            done += 1
    return done


def slowdown(expected_seconds):
    """Host slowdown against the reference, measured now (1.0 = reference speed).

    The calibration lasts about ``SHARE`` of ``expected_seconds``, the
    expected duration of the run it calibrates.
    """
    iterations = int(expected_seconds * SHARE * 1e9 / REFERENCE_NS_PER_ITERATION)
    iterations = max(MIN_ITERATIONS, min(MAX_ITERATIONS, iterations))
    start = time.thread_time()
    work(iterations)
    elapsed = time.thread_time() - start
    return elapsed * 1e9 / iterations / REFERENCE_NS_PER_ITERATION
