"""Out-of-domain sweep and fault flags stop before anything runs.

Each bad value prints one ``error:`` line and exits 2, before a replay
or a cell starts; the neighbouring in-domain values still run.
"""

import pytest

from repro import cli
from repro.cli import main

SWEEP = ["sweep", "--app", "zoom", "--seeds", "1", "--duration", "4", "--jobs", "1"]


@pytest.fixture
def no_replays(monkeypatch):
    """Fail the test if a localize replay or a sweep cell starts."""

    def refuse(*_args, **_kwargs):
        raise AssertionError("ran before the flags were checked")

    monkeypatch.setattr(cli, "NetsimReplayService", refuse)
    monkeypatch.setattr("repro.api.run_sweep", refuse)


def _one_error(capsys):
    captured = capsys.readouterr()
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), captured.err
    assert "Traceback" not in captured.err
    return lines[0]


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--seeds", "0"], "at least one cell"),
        (["--seeds", "-2"], "at least one cell"),
        (["--jobs", "0"], "jobs must be >= 1"),
        (["--jobs", "-3"], "jobs must be >= 1"),
        (["--fault-profile", "replay_abort=2"], "probability"),
        (["--fault-profile", "replay_abort=nan"], "probability"),
        (["--fault-profile", "solar_flare=1"], "unknown fault site"),
    ],
)
def test_sweep_rejects_before_any_cell(flags, message, capsys, no_replays):
    assert main(SWEEP + flags) == 2
    assert message in _one_error(capsys)


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--max-retries", "-1"], "--max-retries must be >= 0"),
        (["--fault-profile", "replay_abort=2"], "probability"),
        (["--fault-profile", "replay_abort=nan"], "probability"),
        (["--fault-profile", "replay_abort=0.5:-1"], "max_fires"),
        (["--fault-profile", "solar_flare=1.0"], "unknown fault site"),
    ],
)
def test_localize_rejects_before_any_replay(flags, message, capsys, no_replays):
    assert main(["localize", "--duration", "4"] + flags) == 2
    assert message in _one_error(capsys)


def test_localize_zero_retries_still_runs(capsys):
    # The lowest in-domain retry count runs its one attempt.
    code = main(
        ["localize", "--app", "zoom", "--duration", "4", "--seed", "1",
         "--max-retries", "0", "--fault-profile", "replay_abort=1.0"]
    )
    out = capsys.readouterr().out
    assert code == 2
    assert "attempt 1/1: replay aborted" in out
    assert "outcome   : failed (all 1 attempts aborted)" in out


def test_sweep_in_domain_fault_profile_still_runs(capsys):
    code = main(SWEEP + ["--fault-profile", "replay_abort=1.0"])
    out = capsys.readouterr().out
    assert code == 0
    assert "seed=0 aborted (fault injection)" in out
