"""Claim: Figure 2 -- O_diff vs T_diff in the two throughput regimes.

Paper: under per-client throttling the single-replay throughput X and
the simultaneous aggregate Y overlap, MWU p = 7.54e-18 (detect); under
a limiter shared with other traffic they do not, p = 0.99.  One
sweep-executor cell per regime; ``quick`` runs both unchanged.
"""

import numpy as np

from repro.core.throughput_comparison import (
    ThroughputComparison,
    aggregate_simultaneous_samples,
)
from repro.experiments.runner import NetsimReplayService
from repro.experiments.scenarios import ScenarioConfig
from repro.experiments.wild import WILD_ISPS, WildReplayService, default_tdiff
from repro.parallel import SweepExecutor
from repro.wehe.apps import make_trace

MAX_PER_CLIENT_P = 1e-6
MIN_SHARED_P = 0.5


def _compare(regime):
    """Throughput comparison of one regime's single and simultaneous replays."""
    if regime == "per_client":
        service = WildReplayService(WILD_ISPS["ISP1"], "netflix", seed=3)
        duration, comparison_seed = service.duration, 90
    else:
        config = ScenarioConfig(app="netflix", limiter="common", duration=45.0, seed=4)
        service = NetsimReplayService(config)
        duration, comparison_seed = config.duration, 91
    trace = make_trace("netflix", duration, service._trace_rng)
    x = service.single_replay(trace)
    simultaneous = service.simultaneous_replay(trace)
    y = aggregate_simultaneous_samples(simultaneous.samples_1, simultaneous.samples_2)
    result = ThroughputComparison(np.random.default_rng(comparison_seed)).detect(
        x, y, default_tdiff()
    )
    return {
        "x_mean_mbps": result.x_mean_bps / 1e6,
        "y_mean_mbps": result.y_mean_bps / 1e6,
        "odiff_median": float(np.median(result.odiff)),
        "tdiff_median": float(np.median(result.tdiff)),
        "pvalue": float(result.pvalue),
        "detected": bool(result.common_bottleneck),
    }


def measure(quick):
    regimes = ("per_client", "shared")
    return dict(zip(regimes, SweepExecutor().map(_compare, regimes)))


def failures(report):
    per_client, shared = report["per_client"], report["shared"]
    checks = [
        (per_client["detected"] and per_client["pvalue"] < MAX_PER_CLIENT_P,
         f"per-client case: detected={per_client['detected']}, "
         f"p={per_client['pvalue']:.2e} (want detected, p < {MAX_PER_CLIENT_P})"),
        (not shared["detected"] and shared["pvalue"] > MIN_SHARED_P,
         f"shared case: detected={shared['detected']}, "
         f"p={shared['pvalue']:.2f} (want not detected, p > {MIN_SHARED_P})"),
    ]
    return [message for ok, message in checks if not ok]
