"""The paper-claim gate's ratio and floor logic (``scripts/paper_claim.py``) on literal numbers.

Nothing here runs the benchmark: the checks feed hand-written ratios and
CPIs to the arithmetic ``scripts/paper_claim.py`` applies to a run.
"""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def claim():
    spec = importlib.util.spec_from_file_location("paper_claim", ROOT / "scripts" / "paper_claim.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_instruction_ratio_scales_by_the_cpi_ratio(claim):
    assert claim.instruction_ratio(1.433, 1.299, 1.718) == pytest.approx(1.0835, abs=1e-4)
    assert claim.instruction_ratio(2.0, 1.5, 1.5) == pytest.approx(2.0)
    assert claim.instruction_ratio(None, 1.3, 1.7) is None
    assert claim.instruction_ratio(1.4, 1.3, 0.0) is None


def test_each_claim_holds_at_or_above_its_own_floor(claim):
    rows = claim.verdicts(claim.FLOOR, claim.FLOOR_INSTR)
    assert [row[0] for row in rows] == [
        "generated_over_simplescalar",
        "generated_over_simplescalar_instr",
    ]
    assert all(row[3] for row in rows)
    cycles, instrs = claim.verdicts(claim.FLOOR + 0.5, claim.FLOOR_INSTR - 0.01)
    assert cycles[3] and not instrs[3]
    cycles, instrs = claim.verdicts(claim.FLOOR - 0.01, claim.FLOOR_INSTR + 0.5)
    assert not cycles[3] and instrs[3]
    assert not any(row[3] for row in claim.verdicts(None, None))


def test_the_floors_never_fall_below_the_paper_claim(claim):
    assert claim.FLOOR >= 1.3
    assert claim.FLOOR_INSTR >= 1.0
