"""Claim: Figure 3 -- BinLossTomo's loss-threshold sensitivity.

Paper: with a rate limiter on the common link only (30 s, sigma =
0.6 s), binary tomography wrongly blames l1 at some loss thresholds
tau, and the inferred x_c and x_1 curves approach or cross; were it
right, x_1 would sit at 1.0 for every tau.  One cell; ``quick`` runs it
unchanged.
"""

from repro.core.tomography import BinLossTomo
from repro.experiments.runner import NetsimReplayService
from repro.experiments.scenarios import ScenarioConfig
from repro.wehe.apps import make_trace

TAUS = (0.005, 0.01, 0.02, 0.03, 0.035, 0.04, 0.045, 0.05, 0.07, 0.1)
SIGMA = 0.6

MAX_GAP_MIN = 0.25  # min over tau of x_1 - x_c
MAX_X1 = 0.97  # x_1 falls below this at some tau


def measure(quick):
    config = ScenarioConfig(
        app="netflix", limiter="common", input_rate_factor=1.5, duration=30.0, seed=8
    )
    service = NetsimReplayService(config)
    result = service.simultaneous_replay(
        make_trace("netflix", config.duration, service._trace_rng)
    )
    m1, m2 = result.measurements_1, result.measurements_2
    curves = []
    for tau in TAUS:
        inferred = BinLossTomo(SIGMA, tau).infer(m1, m2)
        curves.append({"tau": tau, "x_c": inferred.x_c, "x_1": inferred.x_1, "x_2": inferred.x_2})
    gaps = [point["x_1"] - point["x_c"] for point in curves]
    return {
        "loss_rate_1": m1.loss_rate,
        "loss_rate_2": m2.loss_rate,
        "curves": curves,
        "gap_min": min(gaps),
        "gap_max": max(gaps),
        "x_1_min": min(point["x_1"] for point in curves),
    }


def failures(report):
    checks = [
        (report["gap_min"] < MAX_GAP_MIN,
         f"min gap x_1 - x_c {report['gap_min']:.2f} >= {MAX_GAP_MIN}"),
        (report["x_1_min"] < MAX_X1, f"x_1 >= {MAX_X1} at every threshold"),
    ]
    return [message for ok, message in checks if not ok]
