"""Claim: Table 3 -- false negatives as the second path's RTT grows.

Paper: RTT_1 = 35 ms, RTT_2 in {15, 25, 35, 60, 120} ms.  FN is stable
until 120 ms, where it jumps (TCP 50%, UDP 21.33%): larger RTTs mean
larger intervals, fewer of them per test, and an often inconclusive
Spearman test.  The bound is on the moderate RTTs only; the 120 ms
cells may degrade.  Cells are keyed by RTT_2 in ms.  ``quick`` keeps
the first seed.
"""

from repro.api import SweepRequest, run_sweep
from repro.experiments.metrics import tally
from repro.experiments.scenarios import rtt_grid

RTT2_VALUES = (0.015, 0.035, 0.060, 0.120)
MODERATE_MS = ("15", "35", "60")
SEEDS = (50, 51, 52)
APPS = ("netflix", "zoom")

MAX_MODERATE_FN_RATE = 0.5  # per app, over at least one visible cell


def measure(quick):
    configs = [
        config
        for app in APPS
        for config in rtt_grid(
            app, SEEDS[:1] if quick else SEEDS, rtts=RTT2_VALUES,
            limiter="common", rtt_1=0.035, duration=45.0,
        )
    ]
    records = run_sweep(SweepRequest.detection(configs)).results
    return tally([(c.app, f"{c.rtt_2 * 1e3:.0f}") for c in configs], records, True)


def failures(report):
    failures = []
    for app, cells in sorted(report.items()):
        fn = sum(cells[rtt]["false_negatives"] for rtt in MODERATE_MS)
        n = sum(cells[rtt]["positives"] for rtt in MODERATE_MS)
        if n == 0:
            failures.append(f"{app}: no visible cell at moderate RTTs")
        elif fn / n > MAX_MODERATE_FN_RATE:
            failures.append(f"{app}: moderate-RTT FN {fn}/{n} > {MAX_MODERATE_FN_RATE}")
    return failures
