"""Claim: ablations of WeHeY's design choices (DESIGN.md's ablation index).

Each ablation turns one design element off on the same 60 s scenarios:

- ``density``: Algorithm 1's ``(1-FP)|Sigma|`` rule over every interval
  size 10..50 RTT (``dense``, the default) vs a sparse 9-size sweep, on
  the same detection cells.  Dense must detect at least as often.
- ``per_flow``: per-flow throttling localized with the replays unmerged
  (the limitation) and merged (Section 7's remedy), one sweep-executor
  cell per verdict.  Merged must localize more often.
- ``congestion_control``: Section 7's open question, Algorithm 1 under
  Cubic vs BBR-like replay senders; reported, with no bound.  Cubic is
  the dense verdict; the BBR cells rerun the density cells with
  ``BbrSender`` patched in (forked sweep workers inherit the patch).

``quick`` keeps the first seed.
"""

from unittest import mock

import numpy as np

from repro.api import SweepRequest, run_sweep
from repro.core.localizer import WeHeYLocalizer
from repro.core.loss_correlation import LossTrendCorrelation
from repro.experiments.runner import NetsimReplayService
from repro.experiments.scenarios import ScenarioConfig
from repro.experiments.wild import default_tdiff
from repro.netsim.bbr import BbrSender
from repro.parallel import SweepExecutor
from repro.wehe.apps import make_trace
from repro.wehe.traces import bit_invert

SEEDS = (0, 1, 2)
DENSITY_DETECTORS = {
    "dense": LossTrendCorrelation(),
    "sparse": LossTrendCorrelation(rtt_multiples=(10, 15, 20, 25, 30, 35, 40, 45, 50)),
}


def _per_flow_localized(cell):
    seed, merge = cell
    config = ScenarioConfig(app="zoom", limiter="perflow", seed=seed)
    service = NetsimReplayService(config, merge_flows=merge)
    trace = make_trace("zoom", config.duration, service._trace_rng)
    localizer = WeHeYLocalizer(np.random.default_rng(seed), default_tdiff())
    return localizer.localize(service, trace, bit_invert(trace)).localized


def measure(quick):
    seeds = SEEDS[:1] if quick else SEEDS
    configs = [ScenarioConfig(app="netflix", limiter="common", seed=seed) for seed in seeds]
    density = run_sweep(SweepRequest.detection(configs, detectors=DENSITY_DETECTORS)).results
    with mock.patch("repro.wehe.replay.TcpSender", BbrSender):
        bbr = run_sweep(SweepRequest.detection(configs)).results
    cells = [(seed, merge) for merge in (False, True) for seed in seeds]
    localized = dict(zip(cells, SweepExecutor().map(_per_flow_localized, cells)))
    dense = sum(record.verdicts["dense"] for record in density)
    return {
        "tests": len(seeds),
        "density": {"dense": dense, "sparse": sum(r.verdicts["sparse"] for r in density)},
        "per_flow": {
            arm: sum(localized[(seed, merge)] for seed in seeds)
            for arm, merge in (("unmerged", False), ("merged", True))
        },
        "congestion_control": {
            "cubic": dense,
            "bbr": sum(record.verdicts["loss_trend"] for record in bbr),
        },
    }


def failures(report):
    density, per_flow = report["density"], report["per_flow"]
    checks = [
        (density["dense"] >= density["sparse"],
         f"dense sigma sweep detected {density['dense']} < sparse {density['sparse']}"),
        (per_flow["merged"] > per_flow["unmerged"],
         f"merged flows localized {per_flow['merged']} <= unmerged {per_flow['unmerged']}"),
    ]
    return [message for ok, message in checks if not ok]
