"""``repro topology`` reports, pinned line for line.

Each run's stdout must equal its file under ``tests/golden``; a change
to topology construction, the policy internet or the oracle that moves
any reported value fails here.
"""

from pathlib import Path

import pytest

from repro.cli import main

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize(
    "argv, golden",
    [
        ([], "topology_default.txt"),
        (["--ases", "400", "--dynamics-events", "2"], "topology_ases400_dynamics2.txt"),
    ],
    ids=["default", "ases400-dynamics2"],
)
def test_topology_report_matches_golden(capsys, argv, golden):
    assert main(["topology", *argv]) == 0
    assert capsys.readouterr().out == (GOLDEN / golden).read_text()
