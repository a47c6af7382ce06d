"""A registered model is one spec value, and a build hashes nothing.

``register_processor`` calls a model's spec factory once and keeps the
frozen spec; ``get_spec`` returns that value and ``build_processor``
elaborates it.  The spec's fingerprint is hashed when something reads it
(the generation report's summary, a campaign run's identity) and kept on
the spec instance, so building and loading a model runs no factory and
hashes no spec.  The pinned fingerprints below were computed before the
registry kept its values: stores keyed on them stay valid.
"""

from dataclasses import replace

import pytest

import repro.campaign.spec as campaign_spec
from repro.campaign.spec import RunSpec
from repro.describe.spec import PipelineSpec
from repro.processors import build_processor, get_entry, get_spec, processor_names
from repro.processors import registry
from repro.workloads import get_workload

#: sha256 fingerprints of the 12 registered specs.
REGISTERED_FINGERPRINTS = {
    "arm7-mini": "507dfff82a48eb4b89ef2b485fafba9046df11063d7ed0848bdc6e2c9ff586ed",
    "example": "80fc1423de8e04a517ce684700e2e13966f82de1f0603af1131fb428096276b7",
    "strongarm": "12ec6ed8e42f1219e157d3f6847d11732dc09ceae8e983e70633eb8c98ded38f",
    "strongarm-c2k": "a4f039c10e01e4622a2cf98e05d305158e5b73532ae362d3bc8ab4ccc76d3d53",
    "strongarm-c512": "5a9e80890ab349a27fc0f62eee8cb46f83cdc09a8eef745bab1a79d9fc936f6c",
    "strongarm-c8k": "6038403abb7b126ef428a1d5e0b1acf2fbb0ff98968147774f392e3833016c69",
    "strongarm-ds": "6779a3b2d17cc30ce9274e6542b7050e5ba8bb177b838242b8b9594f9116c2ca",
    "strongarm-l2": "a6e3a526ce4f0d5ce1b247ebddeb31803149f5cadedc914ccfedbac601fdbe37",
    "xscale": "aa1de8c53e1fc40a3d44d38890f0f7421e8ef3ea9225b2ac024b573ada0de8e1",
    "xscale-deep": "0e3f7867d69826a1c9b92863c850846debd5ee7de593235a7e8c56c2bf33afa1",
    "xscale-ds": "705133e14f593262303420726b41451d218c6814ecf2785fe4462ece3f55b421",
    "xscale-l2": "d254430d7d5c7574e516c3bfaf885104a2f72ce0058665f4b655b10c073eb8de",
}

#: Campaign run fingerprints with the package-source digest held at 64
#: zeros (the real digest changes with every source edit).
RUN_FINGERPRINTS = [
    (
        RunSpec("strongarm", "crc", scale=1, engine="generated"),
        "37a0adbe06aacaa45f4cc29862b0d8ebd46bbe37fbb6f05e4628e04fb3915024",
    ),
    (
        RunSpec("xscale-ds", "compress", scale=2, engine="interpreted", max_cycles=5000),
        "88eb89b503ec53089779d97c7174315caf1f9229886fb213fdd5d15c27c65dbb",
    ),
]


@pytest.fixture
def private_registry(monkeypatch):
    """A copy of the registry that a test may re-register into."""
    monkeypatch.setattr(registry, "_REGISTRY", dict(registry._REGISTRY))
    return registry._REGISTRY


def test_registered_fingerprints_are_pinned():
    assert {name: get_spec(name).fingerprint() for name in processor_names()} == (
        REGISTERED_FINGERPRINTS
    )


@pytest.mark.parametrize("run,expected", RUN_FINGERPRINTS, ids=["strongarm", "xscale-ds"])
def test_campaign_run_fingerprint_is_pinned(monkeypatch, run, expected):
    monkeypatch.setattr(campaign_spec, "source_digest", lambda: "0" * 64)
    assert replace(run).fingerprint() == expected


def test_a_registered_model_is_one_spec_value():
    for name in processor_names():
        spec = get_spec(name)
        assert get_spec(name) is spec
        entry = get_entry(name)
        assert entry.spec is spec
        fresh = entry.spec_factory()
        assert fresh is not spec
        assert fresh == spec
        assert fresh.fingerprint() == spec.fingerprint()
        assert entry.description == spec.description


def test_registering_a_name_again_replaces_its_value(private_registry):
    first = registry.register_processor("probe", lambda: get_spec("strongarm"))
    assert get_spec("probe") is first.spec is get_spec("strongarm")
    registry.register_processor("probe", lambda: get_spec("xscale"), description="again")
    assert get_spec("probe") is get_spec("xscale")
    assert get_entry("probe").description == "again"
    assert processor_names().count("probe") == 1


def test_a_replaced_copy_hashes_its_own_content(monkeypatch):
    spec = get_spec("strongarm")
    before = spec.fingerprint()
    calls = []
    describe = PipelineSpec.describe
    monkeypatch.setattr(
        PipelineSpec, "describe", lambda self: calls.append(self) or describe(self)
    )

    # The digest is kept on the instance: asking again hashes nothing.
    assert spec.fingerprint() == before
    assert calls == []

    same = replace(spec)
    assert same.fingerprint() == before
    assert calls == [same]

    edited = replace(spec, description="edited")
    assert edited.fingerprint() != before
    assert edited.fingerprint() == edited.fingerprint()
    assert calls == [same, edited]
    assert spec.fingerprint() == before


def test_a_build_runs_no_factory_and_hashes_no_spec(private_registry, monkeypatch):
    factory_calls = []

    def counted(factory):
        def spec_factory():
            factory_calls.append(factory)
            return factory()

        return spec_factory

    # Re-register every model with a counting factory: fresh spec values,
    # so no digest is kept on them yet.
    for name in processor_names():
        entry = private_registry[name]
        private_registry[name] = replace(entry, spec_factory=counted(entry.spec_factory))
    assert len(factory_calls) == len(processor_names())
    factory_calls.clear()

    describe_calls = []
    fingerprint_calls = []
    describe, fingerprint = PipelineSpec.describe, PipelineSpec.fingerprint
    monkeypatch.setattr(
        PipelineSpec, "describe", lambda self: describe_calls.append(self) or describe(self)
    )
    monkeypatch.setattr(
        PipelineSpec,
        "fingerprint",
        lambda self: fingerprint_calls.append(self) or fingerprint(self),
    )

    program = get_workload("crc", scale=1).program
    processors = []
    for name in processor_names():
        for backend in ("interpreted", "generated"):
            processor = build_processor(name, backend=backend)
            processor.load_program(program)
            processors.append((name, processor))

    assert len(processors) == 2 * 12
    assert factory_calls == []
    assert fingerprint_calls == []
    assert describe_calls == []

    # The report still carries the fingerprint, hashed when read: once per
    # spec value, not once per build.
    for name, processor in processors:
        summary = processor.generation_report.summary()
        assert summary["spec_fingerprint"] == get_spec(name).fingerprint()
        assert summary["spec_fingerprint"] == REGISTERED_FINGERPRINTS[name]
    assert len(describe_calls) == 12
