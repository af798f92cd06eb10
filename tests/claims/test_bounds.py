"""Planted violations: every claim bound rejects a report just past it.

Each claim's ``failures(report)`` is pure, so these tests need no
simulation.  A baseline report sits exactly *on* every bound and must
pass; each case moves one value just past one bound and asserts the
message that names it.
"""

import copy

import pytest

from repro.claims import (
    determinism,
    fidelity,
    fingerprint,
    limits,
    multipath,
    topology,
)

BASELINES = {
    fidelity: {
        "verdict_flips": [],
        "wild_verdict_flips": [],
        "hybrid_deterministic": True,
        "events_reduction": fidelity.MIN_EVENTS_REDUCTION,
        "wall_speedup": fidelity.MIN_WALL_SPEEDUP,
    },
    determinism: {
        "jobs": 2,
        "parallel_identical": True,
        "cold_identical": True,
        "warm_identical": True,
        "warm_events": 0,
        "metrics_identical": True,
        "metrics_engine_events": 1,
    },
    topology: {
        "quick": False,
        "graph": {"deterministic": True},
        "tc": {
            "precision": topology.MIN_PRECISION,
            "recall": topology.MIN_RECALL,
            "double_entry_ok": True,
        },
        "columnar": {
            "identical_entries": True,
            "join_speedup": topology.MIN_JOIN_SPEEDUP,
        },
        "dynamics": {
            "wrong_verdicts": topology.MAX_WRONG_VERDICTS,
            "stale_detected": 1,
            "completed": 1,
            "post_precision": topology.MIN_PRECISION,
        },
    },
    multipath: {
        "summary": {
            "wrong_localized_on": 0,
            "single_member_suspects": 0,
            "degradation_curve_off": {
                "1": {"accuracy": multipath.MIN_BASELINE_ACCURACY},
                "2": {"accuracy": 0.5},
            },
            "recovery_rate": multipath.MIN_RECOVERY,
        },
        "deterministic": True,
    },
    fingerprint: {
        "test": {"accuracy": fingerprint.MIN_ACCURACY},
        "compose": {
            "localized": True,
            "classified": True,
            "outcome": "evidence-in-target-area",
            "fingerprint_reason": "ok",
        },
    },
    limits: {
        "red": {"localized": False, "reason_code": "no-common-bottleneck"},
        "excluded_cell": {"outcome": dict(limits.EXCLUDED_OUTCOME)},
    },
}

#: (claim, dotted path, planted value, expected message fragment).
PLANTED = [
    (fidelity, "verdict_flips", [{"seed": 1}], "1 detection verdict flip"),
    (fidelity, "wild_verdict_flips", [{"isp": "ISP1"}],
     "1 wild localization verdict flip"),
    (fidelity, "hybrid_deterministic", False, "did not reproduce its record"),
    (fidelity, "events_reduction", 4.99,
     "hybrid simulated 4.99x fewer events than packet (min 5.0x)"),
    (fidelity, "wall_speedup", 2.99, "hybrid wall speedup 2.99x (min 3.0x)"),
    (determinism, "parallel_identical", False, "jobs=1 and jobs=2 records differ"),
    (determinism, "cold_identical", False, "cold store pass records differ"),
    (determinism, "warm_identical", False, "warm store pass records differ"),
    (determinism, "warm_events", 1, "warm store pass simulated 1 events"),
    (determinism, "metrics_identical", False, "enabling metrics changed a record"),
    (determinism, "metrics_engine_events", 0, "counted no engine events"),
    (topology, "tc.precision", 0.999, "tc precision 0.999 < 1.0"),
    (topology, "tc.recall", 0.899, "tc recall 0.899 < 0.9"),
    (topology, "tc.double_entry_ok", False, "double-entry check failed"),
    (topology, "graph.deterministic", False, "graph generation is not deterministic"),
    (topology, "columnar.identical_entries", False, "backends disagree"),
    (topology, "columnar.join_speedup", 9.99, "join speedup 9.99x < 10.0x"),
    (topology, "dynamics.wrong_verdicts", 1, "1 wrong-verdict pair selections"),
    (topology, "dynamics.stale_detected", 0, "no stale entries to heal"),
    (topology, "dynamics.completed", 0, "dynamics completed no test"),
    (topology, "dynamics.post_precision", 0.999, "post-dynamics precision 0.999"),
    (multipath, "summary.wrong_localized_on", 1, "1 wrong localized verdict(s)"),
    (multipath, "summary.single_member_suspects", 1, "raised on 1-member bundles"),
    (multipath, "summary.degradation_curve_off.1.accuracy", 0.79,
     "1-member detection-off accuracy 0.790 < 0.8"),
    (multipath, "summary.degradation_curve_off.2.accuracy", 0.8,
     "did not degrade at 2 members"),
    (multipath, "summary.recovery_rate", 0.59, "re-hash recovery rate 0.590 < 0.6"),
    (multipath, "deterministic", False, "did not reproduce its record"),
    (fingerprint, "test.accuracy", 0.79, "fingerprint accuracy 0.790 < 0.8"),
    (fingerprint, "compose.localized", False, "localizer found no bottleneck"),
    (fingerprint, "compose.classified", False, "returned no classification"),
    (limits, "red.localized", True, "the RED scenario localized"),
    (limits, "excluded_cell.outcome.on_wrong_localized", False,
     "excluded multipath cell"),
]


def _planted(claim, path, value):
    report = copy.deepcopy(BASELINES[claim])
    *parents, leaf = path.split(".")
    node = report
    for key in parents:
        node = node[key]
    node[leaf] = value
    return report


def _claim_name(claim):
    return claim.__name__.rsplit(".", 1)[1]


@pytest.mark.parametrize("claim", list(BASELINES), ids=_claim_name)
def test_baseline_on_every_bound_passes(claim):
    assert claim.failures(BASELINES[claim]) == []


@pytest.mark.parametrize(
    "claim, path, value, message",
    PLANTED,
    ids=[f"{_claim_name(c)}:{p}={v!r}" for c, p, v, _ in PLANTED],
)
def test_planted_violation_fails_with_its_message(claim, path, value, message):
    failures = claim.failures(_planted(claim, path, value))
    assert len(failures) == 1, failures
    assert message in failures[0]


def test_quick_join_speedup_bound_is_lower():
    report = _planted(topology, "quick", True)
    report["columnar"]["join_speedup"] = topology.MIN_JOIN_SPEEDUP_QUICK
    assert topology.failures(report) == []
    report["columnar"]["join_speedup"] = topology.MIN_JOIN_SPEEDUP_QUICK - 0.01
    (failure,) = topology.failures(report)
    assert "< 4.0x" in failure


def test_absent_recovery_rate_is_not_a_failure():
    # No suspect cell in the grid means nothing to recover.
    assert multipath.failures(_planted(multipath, "summary.recovery_rate", None)) == []
