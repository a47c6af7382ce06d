"""A unified L1: fetch and data share one cache, and both backends agree.

The generated fetch takes a hit on the line the cache last accessed
(``Cache.last_line``) without a set lookup or an LRU update, which is
exact only while that line is still its set's most recently used.  With a
unified L1 the data side's accesses move the same sets, so every data hit
path must update ``last_line`` too.  A small 2-way cache makes fetch and
data evict each other; every statistic, the memory summary and the
front-end counters must match the interpreted engine on every kernel.
"""

import pytest

from repro.describe import elaborate
from repro.describe.spec import CacheLevelSpec, MemorySpec
from repro.processors import get_spec
from repro.workloads import get_workload, workload_names

UNIFIED = MemorySpec(
    l1_unified=CacheLevelSpec(name="L1", size_bytes=512, line_bytes=32, associativity=2)
)


def unified(model, backend):
    spec = get_spec(model)
    spec = type(spec)(**{**spec.__dict__, "name": spec.name + "-U512", "memory": UNIFIED})
    return elaborate(spec, backend=backend)


def outcome(processor, kernel):
    processor.load_program(get_workload(kernel, scale=1).program)
    stats = processor.run()
    predictor = processor.net.hook_env["PREDICTOR"]
    return {
        "cycles": stats.cycles,
        "instructions": stats.instructions,
        "stalls": stats.stalls,
        "squashed": stats.squashed,
        "generated_tokens": stats.generated_tokens,
        "firings": dict(stats.transition_firings),
        "retired": dict(stats.retired_by_class),
        "memory": processor.memory.statistics_summary(),
        "decoder": processor.decoder.cache_info(),
        "predictor": predictor.statistics,
        "registers": [processor.register(i) for i in range(16)],
    }


@pytest.mark.parametrize("kernel", workload_names())
@pytest.mark.parametrize("model", ["strongarm", "xscale"])
def test_unified_l1_matches_across_backends(model, kernel):
    results = {backend: outcome(unified(model, backend), kernel) for backend in ("interpreted", "generated")}
    memory = results["interpreted"]["memory"]
    assert memory["unified_l1"] and memory["icache"] == memory["dcache"]
    if kernel == "blowfish":  # its S-boxes alone overflow the cache
        assert memory["icache"]["evictions"] > 500
    assert results["generated"] == results["interpreted"]
