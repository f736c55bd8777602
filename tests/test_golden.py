"""Reports stay byte-identical to the golden JSON files in tests/golden/.

Each file is named COMMAND_SCENARIO.json and holds the report of
`orbitop COMMAND --scenario SCENARIO --format json` (default seed)."""

from pathlib import Path

import pytest

from orbitop.cli import main

GOLDEN = Path(__file__).parent / "golden"
CASES = sorted(p.stem for p in GOLDEN.glob("*.json"))


def test_golden_set_is_complete():
    assert len(CASES) == 27


@pytest.mark.parametrize("case", CASES)
def test_report_matches_golden(case, tmp_path):
    command, scenario = case.split("_", 1)
    out = tmp_path / "report.json"
    argv = [command, "--scenario", scenario, "--format", "json", "--out", str(out)]
    assert main(argv) == 0
    assert out.read_bytes() == (GOLDEN / f"{case}.json").read_bytes()
