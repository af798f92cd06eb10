"""The claims runner, the pinned fidelity grid, and the shared re-hash loop."""

import importlib
import json
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import repro.claims
from repro.claims import CLAIMS, SCHEMA, fidelity, limits, run, select
from repro.claims.__main__ import main
from repro.core.coordinator import rehash_recovery
from repro.faults import ReplayAbortedError


class TestSelection:
    def test_default_is_every_claim_in_run_order(self):
        assert select() == CLAIMS
        assert select(["limits", "fidelity"]) == ("fidelity", "limits")

    def test_unknown_claim_rejected(self):
        with pytest.raises(ValueError, match="unknown claim"):
            select(["bogus"])

    def test_cli_rejects_unknown_claim(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--only", "bogus"])
        assert exc.value.code == 2
        assert "unknown claim" in capsys.readouterr().err


class TestReport:
    @pytest.fixture
    def canned(self, monkeypatch):
        """The limits claim with a canned measurement (no simulation)."""
        outcome = dict(limits.EXCLUDED_OUTCOME)
        report = {
            "red": {"localized": False, "reason_code": "no-common-bottleneck"},
            "excluded_cell": {"outcome": outcome},
        }
        monkeypatch.setattr(limits, "measure", lambda quick: report)
        return report

    def test_one_header_and_one_entry_per_claim(self, canned):
        results = run(quick=True, only=["limits"])
        assert results["schema"] == SCHEMA
        assert results["quick"] is True
        assert {"code_fingerprint", "git_commit", "host"} <= set(results)
        entry = results["claims"]["limits"]
        assert entry["report"] is canned
        assert entry["failures"] == []
        assert set(results["claims"]) == {"limits"}

    def test_cli_writes_report_and_exits_1_on_failure(self, canned, tmp_path):
        out = tmp_path / "claims.json"
        assert main(["--only", "limits", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["claims"]["limits"]["failures"] == []
        canned["red"]["localized"] = True
        assert main(["--only", "limits", "--out", str(out)]) == 1
        (failure,) = json.loads(out.read_text())["claims"]["limits"]["failures"]
        assert "RED scenario localized" in failure

    def test_timed_counts_simulator_events(self):
        from repro.netsim.engine import Simulator

        def simulate():
            sim = Simulator()
            sim.schedule(0.5, lambda: None)
            sim.run()
            return "done"

        result, wall, events = repro.claims.timed(simulate)
        assert (result, events) == ("done", 1)
        assert wall >= 0.0


class TestGitCommit:
    @pytest.fixture
    def fake_git(self, monkeypatch):
        """Canned answers for ``git rev-parse HEAD`` and ``git status``."""
        answers = {}

        def run(cmd, **kwargs):
            return SimpleNamespace(returncode=0, stdout=answers[cmd[1]])

        monkeypatch.setattr(repro.claims.subprocess, "run", run)
        return answers

    def test_clean_tree_names_its_commit(self, fake_git):
        fake_git.update({"rev-parse": "abc123\n", "status": ""})
        assert repro.claims.git_commit() == "abc123"

    def test_changed_tracked_file_marks_the_commit_dirty(self, fake_git):
        fake_git.update({"rev-parse": "abc123\n", "status": " M src/repro/api.py\n"})
        assert repro.claims.git_commit() == "abc123-dirty"


class TestCommittedReport:
    def test_repo_report_is_a_passing_full_run_of_every_claim(self):
        # The committed CLAIMS.json must re-check clean against today's
        # bounds, so a bound change cannot silently strand it.
        path = Path(__file__).resolve().parents[2] / "CLAIMS.json"
        results = json.loads(path.read_text())
        assert results["schema"] == SCHEMA
        assert results["quick"] is False
        assert set(results["claims"]) == set(CLAIMS)
        for name, entry in results["claims"].items():
            claim = importlib.import_module(f"repro.claims.{name}")
            assert entry["failures"] == [], name
            assert claim.failures(entry["report"]) == [], name


class TestFidelityGrid:
    def test_gate_grid_is_pinned(self):
        configs = fidelity.gate_configs()
        # The grid must stay at the paper's 60 s duration and keep the
        # knife-edge congestion factors (0.95/1.05) out: packet-mode
        # verdicts flip seed-to-seed there, so they cannot gate.
        assert len(configs) == 14
        assert len(set(configs)) == len(configs)
        assert all(c.duration == fidelity.GATE_DURATION for c in configs)
        assert all(c.congestion_factor in (0.2, 1.15) for c in configs)
        assert all(c.fidelity == "packet" for c in configs)


def _report(code, localized=False, suspect=False, invalid=False):
    return SimpleNamespace(
        reason_code=code, localized=localized, multipath_suspect=suspect,
        invalid=invalid,
    )


class TestRehashRecovery:
    """The one port-redraw loop the coordinator and the multipath claim share."""

    def _run(self, outcomes, budget=4):
        calls = []

        def localize(ports):
            calls.append(ports)
            outcome = outcomes[len(calls) - 1]
            if isinstance(outcome, Exception):
                raise outcome
            return outcome

        initial = _report("multipath-suspect", suspect=True)
        rng = np.random.default_rng(np.random.SeedSequence([0xEC49, 0, 0]))
        report, recovered = rehash_recovery(initial, localize, rng, budget)
        return initial, report, recovered, calls

    def test_stops_at_first_localized_retry(self):
        hit = _report("collective-throttling", localized=True)
        _, report, recovered, calls = self._run(
            [_report("no-common-bottleneck"), hit, hit]
        )
        assert (report, recovered, len(calls)) == (hit, True, 2)

    def test_empty_handed_retry_keeps_the_suspect_report(self):
        fresher = _report("flowlet-split", suspect=True)
        outcomes = [fresher, _report("no-common-bottleneck")] * 2
        _, report, recovered, calls = self._run(outcomes)
        assert (report, recovered, len(calls)) == (fresher, False, 4)

    @pytest.mark.parametrize(
        "stop", [_report("bad", invalid=True), ReplayAbortedError("died")],
        ids=["invalid", "aborted"],
    )
    def test_invalid_or_aborted_retry_ends_the_chain(self, stop):
        initial, report, recovered, calls = self._run([stop, None])
        assert (report, recovered, len(calls)) == (initial, False, 1)

    def test_ports_are_seeded_ephemeral_pairs(self):
        _, _, _, calls = self._run([_report("x")] * 4)
        _, _, _, again = self._run([_report("x")] * 4)
        assert calls == again
        assert all(len(p) == 2 and all(1024 <= x <= 65535 for x in p) for p in calls)
