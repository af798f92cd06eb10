"""Claim: Figure 6 -- WeHeY's design beats classic tomography.

Paper: replacing loss-trend correlation with the best classic
tomography algorithm (BinLossTomoNoParams) raises TCP FN by 66-82
points, and unmodified traces add 3-11 more; for UDP, tomography still
misses while WeHeY stays at 0.  Both detectors judge every detection
cell, on modified and on unmodified traces; the bounds hold over the
modified ones.  ``quick`` keeps the first seed.
"""

from repro.api import SweepRequest, run_sweep
from repro.core.loss_correlation import LossTrendCorrelation
from repro.core.tomography import BinLossTomoNoParams
from repro.experiments.metrics import tally
from repro.experiments.scenarios import ScenarioConfig

SEEDS = (0, 1, 2)
FACTORS = (1.5, 2.0)
APPS = ("netflix", "zoom", "skype")
DETECTORS = {
    "loss_trend": LossTrendCorrelation(),
    "tomography": BinLossTomoNoParams(rtt_multiples=(10, 20, 30, 40, 50)),
}

MAX_WEHEY_FN_RATE = 0.5


def measure(quick):
    configs = [
        ScenarioConfig(
            app=app, limiter="common", input_rate_factor=factor, duration=45.0, seed=seed
        )
        for app in APPS
        for factor in FACTORS
        for seed in (SEEDS[:1] if quick else SEEDS)
    ]
    report = {name: {app: {} for app in APPS} for name in DETECTORS}
    for modified in (True, False):
        records = run_sweep(
            SweepRequest.detection(configs, detectors=DETECTORS, modified=modified)
        ).results
        keys = [(c.app, "modified" if modified else "unmodified") for c in configs]
        for name in DETECTORS:
            for app, cells in tally(keys, records, True, detector=name).items():
                report[name][app].update(cells)
    return report


def failures(report):
    wehey_fn, wehey_n, tomo_fn = (
        sum(cells["modified"][field] for cells in report[detector].values())
        for detector, field in (
            ("loss_trend", "false_negatives"),
            ("loss_trend", "positives"),
            ("tomography", "false_negatives"),
        )
    )
    if wehey_n == 0:
        return ["no modified-trace cell produced visible differentiation"]
    checks = [
        (wehey_fn <= tomo_fn,
         f"loss-trend FN {wehey_fn} > tomography FN {tomo_fn} on modified traces"),
        (wehey_fn / wehey_n < MAX_WEHEY_FN_RATE,
         f"loss-trend FN rate {wehey_fn}/{wehey_n} >= {MAX_WEHEY_FN_RATE}"),
    ]
    return [message for ok, message in checks if not ok]
