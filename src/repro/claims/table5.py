"""Claim: Table 5 -- false positives under identical rate limiters.

Paper: with independent but identically configured limiters on l1 and
l2 (the most adversarial FP scenario), loss-trend correlation stays at
or below the 5% target (TCP 1.13%, UDP apps 1.67-3.75%).  The bound is
one-sided binomial: with n = 32 and a true FP rate at the target,
P(X >= 5) ~= 0.02 < 0.05 while P(X >= 4) ~= 0.07, so only 5+
detections are inconsistent with it.  ``quick`` keeps the first seed.
"""

from repro.api import SweepRequest, run_sweep
from repro.experiments.metrics import tally
from repro.experiments.scenarios import ScenarioConfig

SEEDS = (70, 71, 72, 73)
FACTORS = (1.5, 2.0)
APPS = ("netflix", "zoom", "skype", "msteams")

MAX_TOTAL_FP = 4


def measure(quick):
    configs = [
        ScenarioConfig(
            app=app, limiter="noncommon", input_rate_factor=factor, duration=45.0, seed=seed
        )
        for app in APPS
        for factor in FACTORS
        for seed in (SEEDS[:1] if quick else SEEDS)
    ]
    records = run_sweep(SweepRequest.detection(configs)).results
    return tally([(c.app,) for c in configs], records, False)


def failures(report):
    fp = sum(cell["false_positives"] for cell in report.values())
    n = sum(cell["negatives"] for cell in report.values())
    if fp > MAX_TOTAL_FP:
        return [f"FP {fp}/{n} > {MAX_TOTAL_FP}: inconsistent with the 5% target"]
    return []
