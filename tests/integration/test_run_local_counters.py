"""The generated engine's run-local statistics counters and bound place lists.

The emitted ``run_cycles`` counts firings, stalls, retirements and emitted
tokens in plain locals and adds them into ``engine.stats`` in one
``finally``; before a call to a hook that may read ``ctx.stats`` (an
opaque hook, or a template whose source names ``stats``) it writes them
back mid-stretch.  It also binds every place's ``tokens``/``pending`` list
once, which holds only while nothing rebinds them.  The interpreted engine
updates ``stats`` in place and is the oracle: every test runs on both
backends and the results must agree.

* a hook raising on its Nth call leaves identical statistics, whether the
  raise comes from a called hook or from a helper a spliced template calls;
* hooks that read ``ctx.stats`` mid-stretch — an opaque action and guard,
  and a spliced template — see identical values at every call;
* each place keeps its list objects across flushes, two-list commits,
  ``reset()`` and a re-run.

The spliced fetch counts the front end's work the same way: main-memory
reads, decode-cache hits, L1I accesses and hits, and BTB lookups and hits
are run-local too, written back with the statistics counters.  They must
be exact at every stretch end (runs cut into 1000-cycle ``max_cycles``
chunks, as perfbench drives them) and before every opaque hook.
"""

import pytest

from repro.core import EngineOptions, generate_simulator
from repro.describe import elaborate
from repro.describe import semantics as semantics_module
from repro.describe.semantics import ArmSemantics
from repro.describe.templates import bind, template_of
from repro.processors import build_processor, get_spec
from repro.workloads import get_workload

BACKENDS = ("interpreted", "generated")
KERNEL = "crc"


def snapshot(stats):
    return (
        stats.cycles,
        stats.instructions,
        stats.stalls,
        stats.squashed,
        stats.generated_tokens,
        dict(stats.transition_firings),
        dict(stats.retired_by_class),
    )


def front_end(processor):
    """The counters the spliced fetch keeps run-local, read off their objects."""
    memory = processor.memory
    predictor = processor.net.hook_env["PREDICTOR"]
    return (
        memory.memory.read_count,
        processor.decoder.hits,
        processor.decoder.misses,
        memory.icache.stats.accesses,
        memory.icache.stats.hits,
        memory.icache.stats.misses,
        getattr(predictor, "lookups", None),
        getattr(predictor, "hits", None),
    )


def load(processor):
    processor.load_program(get_workload(KERNEL, scale=1).program)
    return processor


def rebound(processor, backend, wrap_action=None, wrap_guard=None):
    """Wrap the last ALU transition's hooks as plain callables, then
    rebuild the engine so the generated loop calls them."""
    net = processor.net
    transition = [t for t in net.transitions if t.name.startswith("alu.")][-1]
    if wrap_action is not None:
        transition.action = wrap_action(transition.action)
    if wrap_guard is not None:
        transition.guard = wrap_guard(transition.guard)
    processor.engine, _report = generate_simulator(net, EngineOptions(backend=backend))
    return processor


class Raised(Exception):
    pass


def raising_on(n):
    """A wrapper factory whose wrapped hook raises on its ``n``-th call."""
    calls = [0]

    def wrap(base):
        def hook(t, ctx):
            calls[0] += 1
            if calls[0] == n:
                raise Raised()
            if base is not None:
                return base(t, ctx)
            return None

        return hook

    return wrap


def after_raise(processor):
    """Run until the hook raises; the cycle and statistics it left.

    The raise abandons a firing halfway (its token left its place), so
    the run cannot be resumed.
    """
    with pytest.raises(Raised):
        processor.run()
    return processor.engine.cycle, snapshot(processor.stats)


@pytest.mark.parametrize("model", ["strongarm", "xscale-ds"])
def test_an_opaque_hook_raising_leaves_identical_statistics(model):
    results = {
        backend: after_raise(rebound(load(build_processor(model, backend=backend)), backend,
                                     wrap_action=raising_on(200)))
        for backend in BACKENDS
    }
    assert results["interpreted"] == results["generated"]
    assert results["generated"][1][1] > 0  # instructions retired before the raise


@pytest.mark.parametrize("model", ["strongarm", "xscale"])
def test_a_spliced_template_helper_raising_leaves_identical_statistics(model, monkeypatch):
    # Both renderings call the helper the model's env bound at build time.
    original = semantics_module.compute_alu
    results = {}
    for backend in BACKENDS:
        calls = [0]

        def compute_alu(t):
            calls[0] += 1
            if calls[0] == 300:
                raise Raised()
            return original(t)

        monkeypatch.setattr(semantics_module, "compute_alu", compute_alu)
        processor = load(build_processor(model, backend=backend))
        if backend == "generated":
            assert "COMPUTE_ALU(t)" in processor.engine.source
        results[backend] = after_raise(processor)
    assert results["interpreted"] == results["generated"]


def recording(snapshots):
    def wrap(base):
        def hook(t, ctx):
            snapshots.append(snapshot(ctx.stats))
            if base is not None:
                return base(t, ctx)
            return True

        return hook

    return wrap


@pytest.mark.parametrize("model", ["strongarm", "xscale-ds"])
def test_opaque_hooks_reading_stats_see_identical_values(model):
    results = {}
    for backend in BACKENDS:
        actions, guards = [], []
        processor = rebound(
            load(build_processor(model, backend=backend)), backend,
            wrap_action=recording(actions), wrap_guard=recording(guards),
        )
        final = snapshot(processor.run())
        results[backend] = (actions, guards, final)
        assert actions and guards
    assert results["interpreted"] == results["generated"]


def snapshotting(snapshots, hook):
    """An ``ArmSemantics`` whose ``hook`` template first records ``ctx.stats``."""

    class Snapshotting(ArmSemantics):
        def _install_hooks(self):
            self.env["SNAPSHOT"] = lambda stats: snapshots.append(snapshot(stats))
            super()._install_hooks()

        def register(self, name, guard=None, action=None):
            if name == hook:
                template = template_of(action, self.env)
                guard, action = bind(
                    template.prefixed(template.key + "/snapshot", "SNAPSHOT(ctx.stats)"), self.env
                )
            super().register(name, guard, action)

    return Snapshotting


@pytest.mark.parametrize("model", ["strongarm", "xscale"])
def test_a_spliced_template_reading_stats_sees_identical_values(model):
    results = {}
    for backend in BACKENDS:
        snapshots = []
        processor = load(elaborate(
            get_spec(model), backend=backend,
            semantics_class=snapshotting(snapshots, "alu.writeback"),
        ))
        if backend == "generated":
            source = processor.engine.source
            assert "SNAPSHOT(ctx.stats)" in source  # spliced, not called
            assert "stats.cycles = cycle" in source.split("try:", 1)[1].split("finally:")[0]
        final = snapshot(processor.run())
        results[backend] = (snapshots, final)
        assert snapshots
    assert results["interpreted"] == results["generated"]


@pytest.mark.parametrize("model", ["strongarm", "xscale"])
def test_a_spliced_template_reading_front_end_statistics_sees_identical_values(model):
    record = "RECORD((MAIN.read_count, DECODER.hits, MEMORY.statistics_summary(), PREDICTOR.statistics))"

    class Recording(ArmSemantics):
        def _install_hooks(self):
            self.env["RECORD"] = seen.append
            super()._install_hooks()

        def register(self, name, guard=None, action=None):
            if name == "alu.writeback":
                template = template_of(action, self.env)
                guard, action = bind(template.prefixed(template.key + "/front-end", record), self.env)
            super().register(name, guard, action)

    results = {}
    for backend in BACKENDS:
        seen = []
        processor = load(elaborate(get_spec(model), backend=backend, semantics_class=Recording))
        if backend == "generated":
            assert record in processor.engine.source  # spliced, not called
        processor.run()
        results[backend] = seen
        assert seen
    assert results["interpreted"] == results["generated"]


def test_built_in_models_write_back_only_in_the_finally():
    source = build_processor("xscale", backend="generated").engine.source
    loop, final = source.split("try:", 1)[1].split("finally:")
    assert "stats." not in loop
    assert "stats.stalls += stalls" in final


def list_ids(net):
    return {name: (id(place.tokens), id(place.pending)) for name, place in net.places.items()}


@pytest.mark.parametrize("model", ["example", "xscale", "strongarm-ds"])
def test_place_lists_are_the_same_objects_after_flushes_commits_and_reset(model):
    results = {}
    for backend in BACKENDS:
        processor = load(build_processor(model, backend=backend))
        net = processor.net
        before = list_ids(net)
        first = snapshot(processor.run())
        assert list_ids(net) == before
        processor.reset()
        assert list_ids(net) == before
        assert all(not place.tokens and not place.pending for place in net.places.values())
        second = snapshot(load(processor).run())
        assert list_ids(net) == before
        assert second == first
        results[backend] = first
    assert results["interpreted"] == results["generated"]
    if model != "example":
        assert results["generated"][3] > 0  # squashes flushed places
    else:
        assert any(place.two_list for place in build_processor(model).net.places.values())


def chunked(processor, chunk=1000):
    """Run in ``chunk``-cycle ``max_cycles`` steps; the front end after each."""
    seen, limit = [], chunk
    while True:
        stats = processor.run(max_cycles=limit)
        seen.append((stats.cycles, front_end(processor)))
        if stats.finish_reason != "max_cycles":
            return seen
        limit += chunk


@pytest.mark.parametrize("model", ["strongarm", "xscale", "xscale-ds"])
def test_front_end_counters_are_exact_at_every_chunk_end(model):
    results = {}
    for backend in BACKENDS:
        processor = load(build_processor(model, backend=backend))
        results[backend] = chunked(processor)
        assert len(results[backend]) > 3
    assert results["interpreted"] == results["generated"]
    assert results["generated"][-1][1][1] > 0  # decode-cache hits counted


def recording_front_end(processor, seen):
    def wrap(base):
        def hook(t, ctx):
            seen.append((snapshot(ctx.stats), front_end(processor)))
            if base is not None:
                return base(t, ctx)
            return True

        return hook

    return wrap


@pytest.mark.parametrize("model", ["strongarm", "xscale"])
def test_opaque_hooks_see_exact_front_end_counters(model):
    results = {}
    for backend in BACKENDS:
        seen = []
        processor = load(build_processor(model, backend=backend))
        processor = rebound(
            processor, backend,
            wrap_action=recording_front_end(processor, seen),
            wrap_guard=recording_front_end(processor, seen),
        )
        processor.run()
        results[backend] = (seen, front_end(processor))
        assert seen
    assert results["interpreted"] == results["generated"]


@pytest.mark.parametrize("model", ["strongarm", "xscale"])
def test_the_spliced_fetch_calls_no_front_end_method_on_its_hit_paths(model):
    source = build_processor(model, backend="generated").engine.source
    for call in ("PREDICTOR.lookup(", "entry_places.get(", "DECODER.hits += 1", "_x.delay_override"):
        assert call not in source, call
    loop, final = source.split("try:", 1)[1].split("finally:")
    assert "decoder_hits += 1" in loop and "DECODER.hits += decoder_hits" in final
    assert "l1i.stats.hits += l1i_hits" in final
    assert ("btb_lookups += 1" in loop) == (model == "xscale")
