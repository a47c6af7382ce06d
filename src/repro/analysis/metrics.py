"""Measurement helpers shared by the benchmark harness and the tests.

Each ``run_*`` function loads one workload into one simulator, runs it to
completion and returns a :class:`BenchmarkResult` with the two quantities
the paper's figures report: simulation throughput in simulated cycles per
host second (Figure 10) and CPI (Figure 11).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.baseline.functional import FunctionalSimulator
from repro.baseline.inorder import InOrderPipelineSimulator
from repro.baseline.simplescalar import SimpleScalarLikeSimulator


@dataclass
class BenchmarkResult:
    """One (simulator, workload) measurement."""

    simulator: str
    workload: str
    cycles: int
    instructions: int
    wall_seconds: float
    final_r0: int
    finish_reason: str = ""

    @property
    def cpi(self):
        if self.instructions == 0:
            return float("inf")
        return self.cycles / self.instructions

    @property
    def cycles_per_second(self):
        if self.wall_seconds <= 0:
            return 0.0
        return self.cycles / self.wall_seconds

    @property
    def mcycles_per_second(self):
        return self.cycles_per_second / 1e6


def _timed_run(simulator, workload, label, max_cycles=None):
    simulator.load_program(workload.program)
    start = time.perf_counter()
    stats = simulator.run(max_cycles=max_cycles) if max_cycles else simulator.run()
    wall = time.perf_counter() - start
    return BenchmarkResult(
        simulator=label,
        workload=workload.name,
        cycles=stats.cycles,
        instructions=stats.instructions,
        wall_seconds=wall,
        final_r0=simulator.register(0),
        finish_reason=getattr(stats, "finish_reason", ""),
    )


def run_functional(workload, max_instructions=50_000_000):
    """Run a workload on the functional instruction-set simulator."""
    simulator = FunctionalSimulator()
    simulator.load_program(workload.program)
    start = time.perf_counter()
    stats = simulator.run(max_instructions=max_instructions)
    wall = time.perf_counter() - start
    return BenchmarkResult(
        simulator="functional",
        workload=workload.name,
        cycles=stats.instructions,  # one "cycle" per instruction
        instructions=stats.instructions,
        wall_seconds=wall,
        final_r0=simulator.register(0),
        finish_reason="halt" if stats.halted else "limit",
    )


def run_simplescalar(workload, config=None, max_cycles=None):
    """Run a workload on the SimpleScalar-style fixed baseline."""
    simulator = SimpleScalarLikeSimulator(config)
    return _timed_run(simulator, workload, "simplescalar-arm", max_cycles)


def run_inorder(workload, config=None, max_cycles=None):
    """Run a workload on the hand-written in-order five-stage baseline."""
    simulator = InOrderPipelineSimulator(config)
    return _timed_run(simulator, workload, "inorder-baseline", max_cycles)


def run_processor(builder, workload, label=None, max_cycles=None, backend=None, **builder_kwargs):
    """Run a workload on an RCPN model built by ``builder``.

    ``backend`` selects the engine backend (``"interpreted"`` or
    ``"generated"``) and is forwarded to the builder; the
    benchmark harness uses it to measure the interpreted-vs-generated gap
    of the paper's Figure 10 without duplicating builder plumbing.
    """
    if backend is not None:
        builder_kwargs["backend"] = backend
    processor = builder(**builder_kwargs)
    processor.load_program(workload.program)
    start = time.perf_counter()
    stats = processor.run(max_cycles=max_cycles)
    wall = time.perf_counter() - start
    return BenchmarkResult(
        simulator=label or processor.net.name,
        workload=workload.name,
        cycles=stats.cycles,
        instructions=stats.instructions,
        wall_seconds=wall,
        final_r0=processor.register(0),
        finish_reason=stats.finish_reason,
    )


def speedup(result, baseline):
    """Throughput ratio (cycles per host second) of ``result`` over ``baseline``.

    A baseline with no measurable throughput (zero or sub-tick wall time)
    yields 0.0, not inf: downstream tables and JSON exports stay finite.
    """
    if baseline.cycles_per_second == 0:
        return 0.0
    return result.cycles_per_second / baseline.cycles_per_second


def average(values):
    values = list(values)
    if not values:
        return 0.0
    return sum(values) / len(values)


def geometric_mean(values):
    values = list(values)
    if not values:
        return 0.0
    product = 1.0
    for value in values:
        product *= value
    return product ** (1.0 / len(values))
