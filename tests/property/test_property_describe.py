"""Property tests for the declarative spec layer (IssueSpec / PipelineSpec).

Hypothesis drives the validation rules and the fingerprint through many
generated configurations: invalid issue widths and over-subscribed ports
must always be rejected, valid configurations must always elaborate, and
the content fingerprint must depend only on declarative *content* — not on
how the description was assembled (dict insertion order, tuple vs list
fields, keyword order).
"""

from hypothesis import given, settings, strategies as st
import pytest

from repro.describe import (
    FetchSpec,
    HazardSpec,
    IssuePortSpec,
    IssueSpec,
    PipelineSpec,
    SpecError,
    StageSpec,
    linear_path,
)

STAGES = ("S1", "S2", "S3")


def spec_with_issue(issue, capacity=2):
    """A minimal two-class pipeline around the given IssueSpec."""
    return PipelineSpec(
        name="PropPipe",
        stages=tuple(StageSpec(name, capacity=capacity) for name in STAGES),
        paths=(
            linear_path(
                "alu", STAGES,
                hooks={"S3": "alu.issue", "end": ("alu.execute", "alu.writeback")},
            ),
            linear_path(
                "system", STAGES,
                hooks={"S3": "system.issue", "end": "system.retire"},
            ),
        ),
        hazards=HazardSpec(forward_states=("S3",), front_flush_stages=("S1", "S2")),
        fetch=FetchSpec(style="sequential", capacity_stage="S1"),
        issue=issue,
    )


# -- validation properties ----------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(width=st.one_of(st.integers(max_value=0), st.booleans(), st.floats(), st.text()))
def test_non_positive_or_non_integer_widths_are_rejected(width):
    with pytest.raises(SpecError, match="issue width"):
        spec_with_issue(IssueSpec(width=width, stage="S2")).validate()


@settings(max_examples=30, deadline=None)
@given(width=st.integers(min_value=2, max_value=8), excess=st.integers(min_value=1, max_value=8))
def test_port_oversubscription_is_rejected(width, excess):
    issue = IssueSpec(
        width=width,
        stage="S2",
        ports=(IssuePortSpec("p", classes=("alu",), count=width + excess),),
    )
    with pytest.raises(SpecError, match="exceeds the issue width"):
        spec_with_issue(issue).validate()


@settings(max_examples=30, deadline=None)
@given(
    width=st.integers(min_value=2, max_value=4),
    count=st.integers(min_value=1, max_value=4),
)
def test_valid_multi_issue_specs_always_validate(width, count):
    issue = IssueSpec(
        width=width,
        stage="S2",
        ports=(IssuePortSpec("p", classes=("alu",), count=min(count, width)),),
    )
    assert spec_with_issue(issue).validate()


def test_single_issue_with_ports_or_stage_is_rejected():
    with pytest.raises(SpecError, match="width > 1"):
        spec_with_issue(IssueSpec(width=1, stage="S2")).validate()
    with pytest.raises(SpecError, match="width > 1"):
        spec_with_issue(
            IssueSpec(width=1, ports=(IssuePortSpec("p", classes=("alu",)),))
        ).validate()


def test_unknown_port_class_and_duplicate_port_are_rejected():
    bad = IssueSpec(
        width=2,
        stage="S2",
        ports=(
            IssuePortSpec("p", classes=("vector",)),
            IssuePortSpec("p", classes=("alu",)),
        ),
    )
    with pytest.raises(SpecError) as caught:
        spec_with_issue(bad).validate()
    message = str(caught.value)
    assert "unknown operation class 'vector'" in message
    assert "duplicate issue port 'p'" in message


def test_path_bypassing_the_issue_stage_is_rejected():
    spec = PipelineSpec(
        name="Skips",
        stages=tuple(StageSpec(name, capacity=2) for name in STAGES),
        paths=(
            linear_path("alu", STAGES, hooks={"S3": "alu.issue", "end": "alu.writeback"}),
            # This path goes straight from S1 to S3: it never visits S2.
            linear_path("system", ("S1", "S3"), hooks={"S3": "system.issue", "end": "system.retire"}),
        ),
        fetch=FetchSpec(style="sequential", capacity_stage="S1"),
        issue=IssueSpec(width=2, stage="S2"),
    )
    with pytest.raises(SpecError, match="never visits issue stage"):
        spec.validate()


# -- fingerprint properties ---------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(width=st.integers(min_value=2, max_value=4), data=st.data())
def test_fingerprint_is_stable_under_assembly_order(width, data):
    """Equal declarative content -> equal fingerprint, however assembled.

    The hooks mapping of ``linear_path`` is shuffled, the ports tuple is
    passed once as a tuple and once as a list, and keyword order differs:
    none of that is content, so the fingerprint must not move.
    """
    hooks = {"S3": "alu.issue", "end": ("alu.execute", "alu.writeback")}
    shuffled_keys = data.draw(st.permutations(sorted(hooks)))
    shuffled = {key: hooks[key] for key in shuffled_keys}

    ports = (IssuePortSpec("p", classes=("alu",), count=1),)

    def build(hook_map, port_seq, flip_kwargs):
        if flip_kwargs:
            issue = IssueSpec(ports=tuple(port_seq), stage="S2", width=width)
        else:
            issue = IssueSpec(width=width, stage="S2", ports=port_seq)
        return PipelineSpec(
            name="PropPipe",
            stages=tuple(StageSpec(name, capacity=width) for name in STAGES),
            paths=(
                linear_path("alu", STAGES, hooks=hook_map),
                linear_path("system", STAGES, hooks={"S3": "system.issue", "end": "system.retire"}),
            ),
            hazards=HazardSpec(forward_states=("S3",), front_flush_stages=("S1", "S2")),
            fetch=FetchSpec(style="sequential", capacity_stage="S1"),
            issue=issue,
        )

    reference = build(hooks, ports, flip_kwargs=False).fingerprint()
    assert build(shuffled, list(ports), flip_kwargs=True).fingerprint() == reference


@settings(max_examples=30, deadline=None)
@given(
    width=st.integers(min_value=2, max_value=4),
    other_width=st.integers(min_value=2, max_value=4),
)
def test_fingerprint_distinguishes_issue_content(width, other_width):
    base = spec_with_issue(IssueSpec(width=width, stage="S2")).fingerprint()
    variant = spec_with_issue(IssueSpec(width=other_width, stage="S2")).fingerprint()
    assert (variant == base) == (other_width == width)
