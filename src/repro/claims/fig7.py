"""Claim: Figure 7 -- false negatives under severe throttling.

Paper: with 25/50/75% of the background directed to the rate limiter,
overall FN was 19.2%, concentrated in TCP experiments with
retransmission rates above 20%: desynchronization then overwhelms the
correlation signal.  The marked-background rate stays constant across
the share sweep (the paper recalibrates rate and queue per cell);
otherwise low shares let the two replays dominate the class, which
Algorithm 1 does not claim to handle.  ``quick`` keeps the first seed.
"""

from repro.api import SweepRequest, run_sweep
from repro.experiments.metrics import tally
from repro.experiments.scenarios import ScenarioConfig

SHARES = (0.25, 0.5, 0.75)
FACTORS = (1.5, 2.5)
SEEDS = (40, 41)
RETX_SPLIT = 0.20

MAX_FN_LOW = 0.5  # FN rate at retx <= RETX_SPLIT


def measure(quick):
    configs = [
        ScenarioConfig(
            app="netflix",
            limiter="common",
            background_share=share,
            background_rate_bps=10e6 / share,
            input_rate_factor=factor,
            duration=45.0,
            seed=seed,
        )
        for share in SHARES
        for factor in FACTORS
        for seed in (SEEDS[:1] if quick else SEEDS)
    ]
    records = run_sweep(SweepRequest.detection(configs)).results
    points = sorted(
        (r.retx_rate, r.queuing_delay * 1e3, r.verdicts["loss_trend"])
        for r in records
        if r.differentiation_visible
    )
    keys = [("low_retx" if r.retx_rate <= RETX_SPLIT else "high_retx",) for r in records]
    return {
        "points": [
            {"retx_rate": retx, "queuing_delay_ms": delay, "detected": detected}
            for retx, delay, detected in points
        ],
        **tally(keys, records, True),
    }


def failures(report):
    if not report["points"]:
        return ["no cell produced visible differentiation"]
    low = report.get("low_retx", {"positives": 0, "false_negatives": 0})
    fn, n = low["false_negatives"], low["positives"]
    if n and fn / n > MAX_FN_LOW:
        return [f"FN at retx <= {RETX_SPLIT:.0%} is {fn}/{n} (max {MAX_FN_LOW})"]
    return []
