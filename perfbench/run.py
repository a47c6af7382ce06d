#!/usr/bin/env python3
"""Perf-ledger benchmark: simulator throughput end to end, host time per layer.

Run from the repository root::

    python3 perfbench/run.py --workload fig10-generated --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload small-cache --trace 1
    python3 perfbench/run.py --record-expected

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` runs every cell once untraced and once under
:class:`layers.LayerTracer`, checks that both runs simulate identically and
that the layers' self times account for the traced wall time, and reports
the per-layer metrics.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
line before it, prefixed ``record:``, carries the run's provenance.

The load is one process on one thread.  Each process points
``REPRO_CODEGEN_CACHE`` at a fresh directory under ``.perfbench/`` and
removes it on exit, so set-up always pays the same cold emission and
``~/.cache/repro/codegen`` is never read or written.

``--record-expected`` re-records ``expected.json``: simulated cycles and
instructions of every kernel cell and of every program in the synthetic
pool.  Do that only when a change is meant to alter simulated timing.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import resource
import shutil
import socket
import sys
import tempfile
import time
from pathlib import Path
from statistics import median

from hostspeed import slowdown

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".perfbench"
EXPECTED_PATH = BENCH_DIR / "expected.json"

#: Cold set-ups per run, after one untimed warm-up that pays the one-off
#: module imports; ``setup_s`` is their median.
SETUP_REPS = 9
#: Measured passes over every cell, at least, whatever ``--seconds`` says.
MIN_PASSES = 2
#: Runs of each simplescalar-arm cell per pass: its cells are few and short,
#: so one run per pass leaves its median too few samples.
BASELINE_RUNS_PER_PASS = 2
#: Simulated cycles between host-speed calibrations in end-to-end runs.
CHUNK_CYCLES = 1000
#: A run still going after this many cycles has failed.
MAX_CYCLES = 10_000_000
#: End-to-end host time is thread CPU time (the simulator is one thread),
#: normalised to a reference host speed by :mod:`hostspeed`.
clock = time.thread_time


def bootstrap():
    """Import ``repro`` from this checkout's ``src/``, or exit non-zero."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.stderr.write("perfbench: no src/repro under %s; run from a full checkout\n" % ROOT)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        sys.stderr.write("perfbench: imported repro from %s, not %s\n" % (repro.__file__, src))
        sys.exit(2)
    return repro


def git_sha():
    """HEAD of the checkout, read without running git; ``"unknown"`` outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class CodegenSandbox:
    """A private ``REPRO_CODEGEN_CACHE`` root, one fresh directory per set-up."""

    def __init__(self):
        OUT_DIR.mkdir(exist_ok=True)
        self.root = tempfile.mkdtemp(prefix="codegen-", dir=OUT_DIR)
        self.count = 0

    def fresh(self):
        """Point the codegen cache at an empty directory and drop the memos."""
        from repro.codegen.cache import CODEGEN_CACHE
        from repro.core.scheduler import SCHEDULE_CACHE

        self.count += 1
        os.environ["REPRO_CODEGEN_CACHE"] = os.path.join(self.root, "setup-%d" % self.count)
        CODEGEN_CACHE.clear()
        SCHEDULE_CACHE.clear()

    def close(self):
        shutil.rmtree(self.root, ignore_errors=True)


class Bench:
    """One workload at one seed: its cells, references and run bookkeeping."""

    def __init__(self, workload, seed, expected, sandbox, max_programs=None):
        self.workload = workload
        self.seed = seed
        self.expected = expected
        self.sandbox = sandbox
        self.max_programs = max_programs
        self.attempted = 0
        self.failures = []
        self.observed = {}
        self.setup_samples = []
        self.setup_raw = []
        self.setup_parts = []
        self.slowdowns = []
        self.programs = self.processors = self.references = None
        self.warmed_up = False

    # -- set-up --------------------------------------------------------------
    def set_up(self, reps):
        """Cold set-up ``reps`` times; keeps the last set of simulators."""
        from suite import SIMPLESCALAR, functional_reference

        if not self.warmed_up:
            self._set_up_once()
            self.setup_samples.clear()
            self.setup_raw.clear()
            self.setup_parts.clear()
            self.warmed_up = True
        for _ in range(reps):
            self.processors = self._set_up_once()
        if self.references is None:
            self.references = {name: functional_reference(p) for name, p in self.programs}
            self.program_of = dict(self.programs)
            self.cells = [(m, name) for m in self.workload.models for name, _ in self.programs]
            self.ss_cells = [(SIMPLESCALAR, name) for name, _ in self.programs]

    def _set_up_once(self):
        """Spec to loaded simulators for every cell, timed into ``setup_samples``.

        Each phase (assembly, then one build-and-load per cell) is preceded
        by a host-speed calibration, like the chunks of a measured run.
        """
        from repro.codegen.cache import CODEGEN_CACHE
        from repro.processors.registry import build_processor

        from suite import build_programs

        self.sandbox.fresh()
        gc.collect()
        raw = normalised = 0.0

        def phase(work):
            nonlocal raw, normalised
            factor = slowdown(0.0)
            start = clock()
            result = work()
            elapsed = clock() - start
            raw += elapsed
            normalised += elapsed / factor
            return result

        def build(model, program):
            processor = build_processor(model, backend=self.workload.backend)
            processor.load_program(program)
            return processor

        self.programs = phase(lambda: build_programs(self.workload, self.seed)[: self.max_programs])
        assemble_s = raw
        processors = {}
        for model in self.workload.models:
            for name, program in self.programs:
                processors[(model, name)] = phase(lambda m=model, p=program: build(m, p))
        self.setup_raw.append(raw)
        self.setup_samples.append(normalised)
        self.setup_parts.append({"assemble_s": assemble_s, "codegen_emits": CODEGEN_CACHE.emits})
        return processors

    # -- correctness ---------------------------------------------------------
    def judge(self, cell, finish_reason, registers, cycles, instructions):
        from suite import check_run

        if self.expected is None:
            # Recording: each cell is held to its own first run.
            expected = self.observed.get(cell, (cycles, instructions))
        else:
            recorded = self.expected.get(cell[0], {}).get(cell[1])
            expected = None if recorded is None else tuple(recorded)
        problems = check_run(
            finish_reason, registers, cycles, instructions, self.references[cell[1]], expected
        )
        self.attempted += 1
        self.observed.setdefault(cell, (cycles, instructions))
        if problems:
            self.failures.append({"cell": list(cell), "problems": problems})

    # -- runs ----------------------------------------------------------------
    def calibrate(self, expected_seconds):
        factor = slowdown(expected_seconds)
        self.slowdowns.append(factor)
        return factor

    def timed(self, advance, timer=clock, calibrate=False):
        """Drive ``advance(max_cycles)`` to the end of the program.

        Returns ``(stats, host_s, normalised_host_s)``.  With ``calibrate``
        the run advances ``CHUNK_CYCLES`` at a time, each chunk preceded by
        a host-speed calibration, so the normalisation follows interference
        that changes within one run.
        """
        host = normalised = elapsed = 0.0
        limit = CHUNK_CYCLES if calibrate else MAX_CYCLES
        while True:
            factor = self.calibrate(elapsed or 0.05) if calibrate else 1.0
            start = timer()
            stats = advance(limit)
            elapsed = timer() - start
            host += elapsed
            normalised += elapsed / factor
            if stats.finish_reason != "max_cycles" or limit >= MAX_CYCLES:
                return stats, host, normalised
            limit += CHUNK_CYCLES

    def run_rcpn(self, cell, processor, fresh=False, timer=clock, calibrate=False):
        """Run one RCPN cell: ``(stats, host_s, normalised_host_s)``, ``None`` on error."""
        from repro.core.exceptions import RCPNError

        from suite import CHECKED_REGISTERS

        if not fresh:
            processor.reset()
            processor.load_program(self.program_of[cell[1]])
        try:
            outcome = self.timed(
                lambda limit: processor.run(max_cycles=limit), timer, calibrate
            )
        except RCPNError as error:
            self.attempted += 1
            self.failures.append({"cell": list(cell), "problems": [repr(error)]})
            return None
        stats = outcome[0]
        registers = [processor.register(i) for i in CHECKED_REGISTERS]
        self.judge(cell, stats.finish_reason, registers, stats.cycles, stats.instructions)
        return outcome

    def run_baseline(self, cell):
        """Run one simplescalar-arm cell: ``(stats, host_s, normalised_host_s)``."""
        from repro.baseline.simplescalar import SimpleScalarLikeSimulator

        from suite import CHECKED_REGISTERS

        simulator = SimpleScalarLikeSimulator()
        simulator.load_program(self.program_of[cell[1]])
        outcome = self.timed(lambda limit: simulator.run(max_cycles=limit), calibrate=True)
        stats = outcome[0]
        registers = [simulator.register(i) for i in CHECKED_REGISTERS]
        self.judge(cell, stats.finish_reason, registers, stats.cycles, stats.instructions)
        return outcome


def end_to_end(bench, seconds, min_passes):
    """Interleaved passes over every cell until ``seconds`` have elapsed."""
    from suite import SIMPLESCALAR

    rng = random.Random(bench.seed)
    times = {}
    raw = {}
    sims = {}
    order = bench.cells + bench.ss_cells * BASELINE_RUNS_PER_PASS
    deadline = time.perf_counter() + seconds
    passes = 0
    while passes < min_passes or time.perf_counter() < deadline:
        rng.shuffle(order)
        for cell in order:
            if cell[0] == SIMPLESCALAR:
                outcome = bench.run_baseline(cell)
            else:
                outcome = bench.run_rcpn(
                    cell, bench.processors[cell], fresh=passes == 0, calibrate=True
                )
            if outcome is None:
                continue
            result, host, normalised = outcome
            raw.setdefault(cell, []).append(host)
            times.setdefault(cell, []).append(normalised)
            sims[cell] = (result.cycles, result.instructions)
        passes += 1

    def throughput(cells, index, host_times=times):
        done = [c for c in cells if c in host_times]
        work = sum(sims[c][index] for c in done)
        host = sum(median(host_times[c]) for c in done)
        return work / host / 1e3 if host > 0 else 0.0

    cycles = sum(sims[c][0] for c in bench.cells if c in sims)
    instructions = sum(sims[c][1] for c in bench.cells if c in sims)
    sim_kcycles = throughput(bench.cells, 0)
    ss_kcycles = throughput(bench.ss_cells, 0)
    metrics = {
        "sim_kcycles_per_s": (sim_kcycles, "kcycles/s"),
        "sim_kinstr_per_s": (throughput(bench.cells, 1), "kinstr/s"),
        "setup_s": (median(bench.setup_samples), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ss_kcycles_per_s": (ss_kcycles, "kcycles/s"),
        "sim_cpi": (cycles / instructions if instructions else 0.0, "cycles/instr"),
    }
    info = {
        "passes": passes,
        "runs_per_cell": min(len(v) for v in times.values()) if times else 0,
        "generated_over_simplescalar": sim_kcycles / ss_kcycles if ss_kcycles else None,
        "setup_samples_s": bench.setup_samples,
        "setup_raw_s": bench.setup_raw,
        "host_slowdown_median": median(bench.slowdowns) if bench.slowdowns else None,
        "raw_sim_kcycles_per_s": throughput(bench.cells, 0, raw),
        "raw_ss_kcycles_per_s": throughput(bench.ss_cells, 0, raw),
    }
    return metrics, info


def simulated_summary(processor, stats):
    """Everything simulated about one run, for traced-vs-untraced equality."""
    from suite import CHECKED_REGISTERS

    return {
        "cycles": stats.cycles,
        "instructions": stats.instructions,
        "stalls": stats.stalls,
        "squashed": stats.squashed,
        "finish_reason": stats.finish_reason,
        "firings": dict(stats.transition_firings),
        "retired_by_class": dict(stats.retired_by_class),
        "memory": processor.memory.statistics_summary(),
        "predictor": predictor_statistics(processor),
        "registers": [processor.register(i) for i in CHECKED_REGISTERS],
    }


def predictor_statistics(processor):
    from repro.memory.branch_predictor import BranchPredictor, BranchTargetBuffer

    for unit in processor.net.units.values():
        if isinstance(unit, (BranchPredictor, BranchTargetBuffer)):
            return dict(unit.statistics)
    return None


def per_layer(bench, setup_reps, spans_path, meta):
    """One untraced and one traced pass; returns the per-layer metrics."""
    from repro.describe import elaborate
    from repro.processors.registry import get_spec

    from layers import SEMANTIC_CLASSES, LayerTracer, tracing_semantics

    # Set-up breakdown: the set-up phases timed across fresh cold set-ups.
    setup_tracer = LayerTracer(raw_limit=0)
    breakdown = []
    bench.set_up(0)  # the untimed warm-up
    with setup_tracer:
        setup_tracer.install_setup()
        for _ in range(setup_reps):
            setup_tracer.reset_counts()
            bench.set_up(1)
            breakdown.append(
                {
                    layer: setup_tracer.layer_totals(layer)[2] / 1e9
                    for layer in ("setup.elaborate", "setup.generate")
                }
            )

    untraced = {}
    untraced_ns = 0
    for cell in bench.cells:
        outcome = bench.run_rcpn(cell, bench.processors[cell], fresh=True, timer=time.perf_counter_ns)
        if outcome is not None:
            stats, elapsed, _ = outcome
            untraced[cell] = simulated_summary(bench.processors[cell], stats)
            untraced_ns += elapsed

    tracer = LayerTracer()
    semantics_class = tracing_semantics(tracer)
    traced = {}
    traced_ns = 0
    decoder_hits = decoder_lookups = 0
    with tracer:
        tracer.install()
        processors = {}
        for cell in bench.cells:
            processor = elaborate(
                get_spec(cell[0]), backend=bench.workload.backend, semantics_class=semantics_class
            )
            processor.load_program(bench.program_of[cell[1]])
            processors[cell] = processor
        tracer.reset_counts()
        for cell in bench.cells:
            decoder = processors[cell].decoder
            hits, misses = decoder.hits, decoder.misses
            marks = []

            def timer():
                marks.append(tracer.covered_ns)
                return time.perf_counter_ns()

            covered = tracer.covered_ns
            outcome = bench.run_rcpn(cell, processors[cell], fresh=True, timer=timer)
            decoder_hits += decoder.hits - hits
            decoder_lookups += decoder.hits - hits + decoder.misses - misses
            if outcome is not None:
                stats, elapsed, _ = outcome
                traced[cell] = simulated_summary(processors[cell], stats)
                traced_ns += elapsed
                # Every span of the cell must lie inside its timed window (the
                # timer brackets it), or the layers would claim time the wall
                # clock never saw and the engine's share would be understated.
                inside = sum(marks[1::2]) - sum(marks[0::2])
                if tracer.covered_ns - covered != inside or inside > elapsed:
                    bench.failures.append(
                        {"cell": list(cell), "problems": ["layer spans outside the run's timed window"]}
                    )
    tracer.dump(spans_path, meta)

    # The traced run must simulate exactly what the untraced one did.
    for cell in bench.cells:
        if traced.get(cell) != untraced.get(cell):
            bench.failures.append(
                {"cell": list(cell), "problems": ["traced run simulated differently from untraced"]}
            )

    # Self times account for the traced wall time by construction: the span
    # stack makes them sum to the time the outermost spans cover, every
    # wrapped layer belongs to one of these groups, and the engine's share is
    # the rest.  The per-cell check above keeps that rest non-negative.
    groups = ("semantics", "substrate", "token", "operands", "decoder", "memory", "predictor", "isa")
    group_self = {g: tracer.layer_totals(g)[3] for g in groups}
    engine_ns = traced_ns - tracer.covered_ns

    def share(ns):
        return ns / traced_ns if traced_ns else 0.0

    sims = list(untraced.values())
    cycles = sum(s["cycles"] for s in sims)
    instructions = sum(s["instructions"] for s in sims)
    firings = sum(sum(s["firings"].values()) for s in sims)
    kinstr = instructions / 1e3

    def cache_ratio(side):
        accesses = sum(s["memory"][side]["accesses"] for s in sims)
        misses = sum(s["memory"][side]["misses"] for s in sims)
        return misses / accesses if accesses else 0.0

    miss_cycles = 0
    for s in sims:
        memory = s["memory"]
        miss_cycles += memory["dcache"]["miss_cycles"]
        if not memory["unified_l1"]:
            miss_cycles += memory["icache"]["miss_cycles"]
    predictors = [s["predictor"] for s in sims if s["predictor"] is not None]
    predictions = sum(p["predictions"] for p in predictors)
    mispredictions = sum(p["mispredictions"] for p in predictors)

    guard = [tracer.layer_totals("semantics.%s.guard" % c) for c in SEMANTIC_CLASSES]
    action = [tracer.layer_totals("semantics.%s.action" % c) for c in SEMANTIC_CLASSES]
    guard_calls = sum(g[0] for g in guard)
    action_calls = sum(a[0] for a in action)
    compute = tracer.layer_totals("substrate.compute")
    operand_check = tracer.layer_totals("substrate.operand_check")
    regref = tracer.layer_totals("operands.regref")
    getattr_calls = tracer.span_totals("token:InstructionToken.__getattr__")[0]
    accesses, access_ns = tracer.span_totals("memory.delay:")
    decoder = tracer.layer_totals("decoder")

    def per_call(ns, calls):
        return ns / calls if calls else 0.0

    metrics = {
        "engine.self_share": (share(engine_ns), "share"),
        "engine.ns_per_firing": (untraced_ns / firings if firings else 0.0, "ns"),
        "sim.firings_per_cycle": (firings / cycles, "1/cycle"),
        "sim.stalls_per_cycle": (sum(s["stalls"] for s in sims) / cycles, "1/cycle"),
        "sim.squashed_per_kinstr": (sum(s["squashed"] for s in sims) / kinstr, "1/kinstr"),
        "semantics.guard.calls": (guard_calls, "count"),
        "semantics.guard.ns_per_call": (per_call(sum(g[3] for g in guard), guard_calls), "ns"),
        "semantics.guard.pass_ratio": (per_call(sum(g[1] for g in guard), guard_calls), "ratio"),
        "semantics.guard.self_share": (share(sum(g[3] for g in guard)), "share"),
        "semantics.action.calls": (action_calls, "count"),
        "semantics.action.ns_per_call": (per_call(sum(a[3] for a in action), action_calls), "ns"),
        "semantics.action.self_share": (share(sum(a[3] for a in action)), "share"),
    }
    for opclass in SEMANTIC_CLASSES:
        metrics["semantics.%s.self_share" % opclass] = (
            share(tracer.layer_totals("semantics." + opclass)[3]),
            "share",
        )
    metrics.update(
        {
            "semantics.issue_gate.self_share": (
                share(tracer.layer_totals("semantics.issue_gate")[3]),
                "share",
            ),
            "substrate.compute.calls": (compute[0], "count"),
            "substrate.compute.self_share": (share(compute[3]), "share"),
            "substrate.operand_check.calls": (operand_check[0], "count"),
            "substrate.operand_check.self_share": (share(operand_check[3]), "share"),
            "token.getattr_per_instr": (getattr_calls / instructions, "1/instr"),
            "token.self_share": (share(group_self["token"]), "share"),
            "operands.regref.calls": (regref[0], "count"),
            "operands.regref.ns_per_call": (per_call(regref[3], regref[0]), "ns"),
            "operands.self_share": (share(group_self["operands"]), "share"),
            "decoder.calls": (decoder[0], "count"),
            "decoder.cache_hit_ratio": (per_call(decoder_hits, decoder_lookups), "ratio"),
            "decoder.self_share": (share(group_self["decoder"]), "share"),
            "memory.accesses": (accesses, "count"),
            "memory.ns_per_access": (per_call(access_ns, accesses), "ns"),
            "memory.self_share": (share(group_self["memory"]), "share"),
            "memory.l1i_miss_ratio": (cache_ratio("icache"), "ratio"),
            "memory.l1d_miss_ratio": (cache_ratio("dcache"), "ratio"),
            "memory.miss_cycles_per_kinstr": (miss_cycles / kinstr, "cycles/kinstr"),
            "predictor.lookups": (
                sum(p.get("lookups", p["predictions"]) for p in predictors),
                "count",
            ),
            "predictor.mispredict_ratio": (per_call(mispredictions, predictions), "ratio"),
            "predictor.self_share": (share(group_self["predictor"]), "share"),
            "isa.alu.calls": (tracer.layer_totals("isa.alu")[0], "count"),
            "isa.self_share": (share(group_self["isa"]), "share"),
            "setup.elaborate_s": (median(b["setup.elaborate"] for b in breakdown), "s"),
            "setup.generate_s": (median(b["setup.generate"] for b in breakdown), "s"),
            "setup.assemble_s": (
                median(p["assemble_s"] for p in bench.setup_parts),
                "s",
            ),
            "setup.codegen_emits": (
                median(p["codegen_emits"] for p in bench.setup_parts),
                "count",
            ),
            "trace.overhead_ratio": (traced_ns / untraced_ns if untraced_ns else 0.0, "ratio"),
        }
    )
    info = {
        "group_self_share": {g: share(ns) for g, ns in group_self.items()},
        "traced_wall_s": traced_ns / 1e9,
        "untraced_wall_s": untraced_ns / 1e9,
    }
    return metrics, info


def load_expected(path):
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except FileNotFoundError:
        return {}


def record_expected(path):
    """Re-record ``expected.json`` from the current code."""
    from suite import DEFAULT_SEED, WORKLOADS

    sandbox = CodegenSandbox()
    recorded = {}
    try:
        for workload in WORKLOADS.values():
            # The synthetic workload records its whole pool (seed None).
            seed = None if workload.synthetic else DEFAULT_SEED
            bench = Bench(workload, seed, None, sandbox)
            bench.set_up(1)
            end_to_end(bench, seconds=0, min_passes=1)
            if bench.failures:
                raise RuntimeError("cannot record failing cells: %r" % bench.failures)
            for (model, name), counts in bench.observed.items():
                recorded.setdefault(model, {})[name] = list(counts)
    finally:
        sandbox.close()
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(recorded, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print("recorded %d cells into %s" % (sum(map(len, recorded.values())), path))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=None, help="default: suite.DEFAULT_SEED")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--expected", default=str(EXPECTED_PATH), help="recorded counts to gate on")
    parser.add_argument(
        "--quick", action="store_true", help="one set-up, one pass, two programs (smoke test)"
    )
    parser.add_argument("--record-expected", action="store_true")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    repro = bootstrap()
    from suite import DEFAULT_SEED, WORKLOADS

    if args.record_expected:
        record_expected(args.expected)
        return 0
    if args.workload not in WORKLOADS:
        sys.stderr.write("perfbench: --workload must be one of %s\n" % ", ".join(WORKLOADS))
        return 2
    workload = WORKLOADS[args.workload]
    seed = DEFAULT_SEED if args.seed is None else args.seed
    setup_reps = 1 if args.quick else SETUP_REPS

    meta = {
        "workload": workload.name,
        "seed": seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "repro_version": repro.__version__,
        "python": platform.python_version(),
        "host": socket.gethostname(),
        "machine": platform.machine(),
    }
    sandbox = CodegenSandbox()
    try:
        bench = Bench(
            workload,
            seed,
            load_expected(args.expected),
            sandbox,
            max_programs=2 if args.quick else None,
        )
        if args.trace:
            spans_path = OUT_DIR / ("spans-%s.json" % workload.name)
            metrics, info = per_layer(bench, setup_reps, spans_path, meta)
            info["spans_file"] = str(spans_path.relative_to(ROOT))
        else:
            bench.set_up(setup_reps)
            seconds = 0.0 if args.quick else args.seconds
            metrics, info = end_to_end(bench, seconds, 1 if args.quick else MIN_PASSES)
    finally:
        sandbox.close()

    meta.update(info)
    meta["failures"] = bench.failures[:20]
    print("record: " + json.dumps(meta, sort_keys=True))
    result = {
        "correct": not bench.failures,
        "attempted": bench.attempted,
        "failed": len(bench.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
