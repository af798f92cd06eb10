"""``repro qdisc`` listings, pinned line for line.

The registry table (fidelities, the ``seeded`` column, descriptions)
and the ``--build`` smoke report must equal their files under
``tests/golden``; a registry change that moves a mechanism's
fidelities or its seeding fails here.
"""

from pathlib import Path

import pytest

from repro.cli import main

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize(
    "argv, golden",
    [([], "qdisc.txt"), (["--build"], "qdisc_build.txt")],
    ids=["list", "build"],
)
def test_qdisc_listing_matches_golden(capsys, argv, golden):
    assert main(["qdisc", *argv]) == 0
    assert capsys.readouterr().out == (GOLDEN / golden).read_text()
