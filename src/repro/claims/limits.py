"""Claim: the two known limits still hold, exactly as pinned.

A known limit is pinned in both directions: the claim fails if the
limit goes away *or* changes, so neither a fix nor a new failure mode
goes unnoticed.

- **RED never localizes.**  The loss-trend localizer keys on correlated
  loss bursts across the two paths; RED's randomized early drops
  destroy that correlation, so a RED probe scenario
  (:data:`RED_SCENARIO`) must end without a localized verdict.
- **The excluded multipath cell.**  The (4 members, 0.03 s flowlet)
  cell is left out of the multipath grid: the simulator's background
  modulation is one global envelope applied in sync to every member,
  so loss trends of *disjoint* members correlate, and a split pair
  over a 4-wide bundle can look like a shared limiter (see "Known
  limits" in DESIGN.md).  At :data:`EXCLUDED_CELL` both arms localize
  a pair that shared a member queue for under 2% of the replay
  window; :data:`EXCLUDED_OUTCOME` pins that outcome.
"""

from repro.claims.fingerprint import localize_probe
from repro.claims.multipath import run_cell
from repro.stats.fingerprint import probe_config

RED_SCENARIO = {"shaper": "red", "app": "netflix", "seed": 0, "duration": 20.0}

#: (members, flowlet gap, shaper, seed) of the pinned excluded cell.
EXCLUDED_CELL = (4, 0.03, "tbf", 5)
#: The cell's outcome: detection-off reason code, detection-on initial
#: and final reason codes, and whether detection on localized wrongly.
EXCLUDED_OUTCOME = {
    "off_reason_code": "collective-throttling",
    "on_initial_reason_code": "collective-throttling",
    "on_final_reason_code": "collective-throttling",
    "on_wrong_localized": True,
}


def measure(quick):
    config = probe_config(
        RED_SCENARIO["shaper"],
        app=RED_SCENARIO["app"],
        seed=RED_SCENARIO["seed"],
        duration=RED_SCENARIO["duration"],
    )
    red, _service = localize_probe(config)
    cell = run_cell(*EXCLUDED_CELL)
    return {
        "red": {
            "scenario": RED_SCENARIO,
            "localized": bool(red.localized),
            "reason_code": red.reason_code,
        },
        "excluded_cell": {
            "cell": list(EXCLUDED_CELL),
            "outcome": {
                "off_reason_code": cell["off"]["reason_code"],
                "on_initial_reason_code": cell["on"]["initial_reason_code"],
                "on_final_reason_code": cell["on"]["final_reason_code"],
                "on_wrong_localized": cell["on"]["wrong_localized"],
            },
            "colocation": cell["on"]["colocation"],
        },
    }


def failures(report):
    failures = []
    red = report["red"]
    if red["localized"]:
        failures.append(
            f"known limit changed: the RED scenario localized ({red['reason_code']})"
        )
    outcome = report["excluded_cell"]["outcome"]
    if outcome != EXCLUDED_OUTCOME:
        failures.append(
            f"known limit changed: excluded multipath cell {EXCLUDED_CELL} "
            f"gave {outcome}, pinned {EXCLUDED_OUTCOME}"
        )
    return failures
