"""Claim: Table 4 -- false negatives under congestion on l1 and l2.

Paper: as the non-common links' load rises to 0.95 / 1.05 / 1.15, FN
grows (UDP 0 -> 2.38%, TCP 19.3 -> 34.88%): l1 and l2 become the
dominant bottleneck and the two paths' losses decorrelate -- arguably
not real false negatives.  The bound: congestion does not improve
detection beyond :data:`FN_SLACK`, checked per app when both cells have
visible tests.  Cells are keyed by load in percent.  ``quick`` keeps
the first seed.
"""

from repro.api import SweepRequest, run_sweep
from repro.experiments.metrics import tally
from repro.experiments.scenarios import congestion_grid

CONGESTION = (0.2, 0.95, 1.15)
SEEDS = (60, 61, 62)
APPS = ("zoom", "netflix")

FN_SLACK = 0.34  # FN at load 0.2 <= FN at load 1.15 + FN_SLACK


def measure(quick):
    configs = [
        config
        for app in APPS
        for config in congestion_grid(
            app, SEEDS[:1] if quick else SEEDS, factors=CONGESTION,
            limiter="common", duration=45.0,
        )
    ]
    records = run_sweep(SweepRequest.detection(configs)).results
    return tally([(c.app, f"{c.congestion_factor:.0%}") for c in configs], records, True)


def failures(report):
    failures = []
    for app, cells in sorted(report.items()):
        base, worst = cells["20%"], cells["115%"]
        if base["positives"] and worst["positives"]:
            fn_base = base["false_negatives"] / base["positives"]
            fn_worst = worst["false_negatives"] / worst["positives"]
            if fn_base > fn_worst + FN_SLACK:
                failures.append(
                    f"{app}: FN at load 0.2 ({fn_base:.2f}) > FN at load 1.15 "
                    f"({fn_worst:.2f}) + {FN_SLACK}"
                )
    return failures
