"""Planted violations: every claim bound rejects a report just past it.

Each claim's ``failures(report)`` is pure, so these tests need no
simulation.  A baseline report sits exactly *on* every bound and must
pass; each case moves one value just past one bound and asserts the
message that names it.
"""

import copy

import pytest

from repro.claims import (
    ablations,
    determinism,
    fidelity,
    fig2,
    fig3,
    fig4,
    fig5,
    fig6,
    fig7,
    fingerprint,
    limits,
    multipath,
    service,
    table1,
    table3,
    table4,
    table5,
    topology,
)
from repro.loadgen.scenarios import SCENARIOS

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
        "coverage": {"complete_fraction": 0.21, "suitable_fraction": 0.41, "entries": 1},
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
    service: {
        "chaos": {
            "scenarios": {
                name: {
                    "responses": {"REJECTED_OVERLOAD": 1},
                    "one_terminal_each": True,
                    "deterministic_rerun": True,
                    "recovered_to_healthy": True,
                }
                for name in SCENARIOS
            },
        },
        "bounds": {
            "onehot": {
                "fair_share": 100.0,
                "hot_served": 114,
                "hot_rejected": 200,
                "light_p99_s": 2.0,
                "baseline_light_p99_s": 0.5,
                "light_served_fraction": {"light-0": 0.81},
            },
            "sustained2x": {"capacity_rps": 10.0, "throughput_rps": 9.0, "rejected": 1},
            "spike": {"rejected": 1, "transitions": 2, "recovered_to_healthy": True},
            "ramp": {"first_transition": "degraded"},
        },
    },
    table1: {
        "isps": {
            name: {"localized": 3, "tests": 6}
            for name in ("ISP1", "ISP2", "ISP3", "ISP4", "ISP5")
        },
        "sanity": {"detections": table1.MAX_SANITY_DETECTIONS, "tests": 3},
    },
    fig2: {
        "per_client": {"detected": True, "pvalue": 0.99e-6},
        "shared": {"detected": False, "pvalue": 0.51},
    },
    fig3: {"gap_min": 0.24, "x_1_min": 0.96},
    fig4: {
        "onset_single_s": 10.0,
        "onset_simultaneous_s": 7.4,
        "early_mbps": 1.6,
        "late_mbps": 1.0,
    },
    fig5: {
        "retx": {"emulation": {"min": 0.2, "max": 0.3}, "wild": {"min": 0.1, "max": 0.1}},
        "delay_ms": {
            "emulation": {"min": 5.0, "max": 20.0},
            "wild": {"min": 5.0, "max": 5.0},
        },
    },
    fig6: {
        "loss_trend": {"netflix": {"modified": {"positives": 3, "false_negatives": 1}}},
        "tomography": {"netflix": {"modified": {"positives": 3, "false_negatives": 1}}},
    },
    fig7: {
        "points": [{"retx_rate": 0.1}],
        "low_retx": {"positives": 2, "false_negatives": 1},
    },
    table3: {
        app: {
            "15": {"positives": 2, "false_negatives": 1},
            "35": {"positives": 0, "false_negatives": 0},
            "60": {"positives": 0, "false_negatives": 0},
        }
        for app in table3.APPS
    },
    table4: {
        "zoom": {
            "20%": {"positives": 3, "false_negatives": 2},
            "115%": {"positives": 3, "false_negatives": 1},
        },
    },
    table5: {"netflix": {"negatives": 8, "false_positives": table5.MAX_TOTAL_FP}},
    ablations: {
        "density": {"dense": 2, "sparse": 2},
        "per_flow": {"unmerged": 1, "merged": 2},
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
    (topology, "coverage.complete_fraction", 0.2, "complete fraction 0.20 outside"),
    (topology, "coverage.complete_fraction", 0.95, "complete fraction 0.95 outside"),
    (topology, "coverage.suitable_fraction", 0.4, "suitable fraction 0.40 <= 0.4"),
    (topology, "coverage.entries", 0, "empty topology database"),
    (service, "chaos.scenarios.ramp.deterministic_rerun", False,
     "chaos ramp: admission decisions diverged"),
    (service, "chaos.scenarios.onehot.one_terminal_each", False,
     "chaos onehot: a submission lacks exactly one terminal response"),
    (service, "chaos.scenarios.sustained2x.responses", {},
     "overload was never explicitly rejected"),
    (service, "chaos.scenarios.spike.recovered_to_healthy", False,
     "chaos spike: governor did not recover"),
    (service, "bounds.onehot.hot_served", 116, "hot tenant served 116 > 1.15x fair share"),
    (service, "bounds.onehot.hot_rejected", 114, "hot tenant rejected 114 <= served 114"),
    (service, "bounds.onehot.light_p99_s", 2.01, "light p99 2.010 s > 2.000 s"),
    (service, "bounds.onehot.light_served_fraction.light-0", 0.8,
     "light-0 served fraction 0.800 <= 0.8"),
    (service, "bounds.sustained2x.throughput_rps", 7.0, "throughput 0.700x capacity outside"),
    (service, "bounds.sustained2x.throughput_rps", 11.0, "throughput 1.100x capacity outside"),
    (service, "bounds.sustained2x.rejected", 0, "sustained2x rejected nothing"),
    (service, "bounds.spike.rejected", 0, "spike rejected nothing"),
    (service, "bounds.spike.transitions", 1, "spike made 1 governor transitions"),
    (service, "bounds.spike.recovered_to_healthy", False, "spike: governor did not recover"),
    (service, "bounds.ramp.first_transition", "shedding", "transition is to 'shedding'"),
    (table1, "isps.ISP1.localized", 2, "ISP1 localized 0.33 < 0.5"),
    (table1, "isps.ISP5.localized", 4, "ISP5 localized 0.67 > 0.5"),
    (table1, "sanity.detections", 2, "2 sanity-check false detections (max 1)"),
    (fig2, "per_client.pvalue", 1e-6, "per-client case: detected=True, p=1.00e-06"),
    (fig2, "per_client.detected", False, "per-client case: detected=False"),
    (fig2, "shared.pvalue", 0.5, "shared case: detected=False, p=0.50"),
    (fig2, "shared.detected", True, "shared case: detected=True"),
    (fig3, "gap_min", 0.25, "min gap x_1 - x_c 0.25 >= 0.25"),
    (fig3, "x_1_min", 0.97, "x_1 >= 0.97 at every threshold"),
    (fig4, "onset_simultaneous_s", 7.5, "simultaneous onset 7.5 s >= 0.75x single onset 10.0 s"),
    (fig4, "early_mbps", 1.5, "early single-replay throughput 1.50 Mb/s <= 1.5x late"),
    (fig5, "retx.emulation.min", 0.21, "emulated retx min 0.210 > 2.0x wild max 0.100"),
    (fig5, "retx.wild.min", 0.31, "wild retx min 0.310 > emulated max 0.300"),
    (fig5, "delay_ms.emulation.min", 5.1, "emulated delay min 5.1 ms > wild max 5.0 ms"),
    (fig5, "delay_ms.wild.min", 20.1, "wild delay min 20.1 ms > emulated max 20.0 ms"),
    (fig5, "delay_ms.emulation.max", 5.0, "emulated queuing delays do not spread"),
    (fig6, "tomography.netflix.modified.false_negatives", 0,
     "loss-trend FN 1 > tomography FN 0"),
    (fig6, "loss_trend.netflix.modified.positives", 2, "loss-trend FN rate 1/2 >= 0.5"),
    (fig6, "loss_trend.netflix.modified.positives", 0, "no modified-trace cell"),
    (fig7, "low_retx.false_negatives", 2, "FN at retx <= 20% is 2/2 (max 0.5)"),
    (fig7, "points", [], "no cell produced visible differentiation"),
    (table3, "netflix.15.false_negatives", 2, "netflix: moderate-RTT FN 2/2 > 0.5"),
    (table3, "zoom.15.positives", 0, "zoom: no visible cell at moderate RTTs"),
    (table4, "zoom.20%.false_negatives", 3, "zoom: FN at load 0.2 (1.00) > FN at load 1.15"),
    (table5, "netflix.false_positives", 5, "FP 5/8 > 4"),
    (ablations, "density.dense", 1, "dense sigma sweep detected 1 < sparse 2"),
    (ablations, "per_flow.merged", 1, "merged flows localized 1 <= unmerged 1"),
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
