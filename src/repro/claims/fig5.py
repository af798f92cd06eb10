"""Claim: Figure 5 -- the emulation grid spans the wild replay regime.

Paper: the emulation experiments' retransmission-rate quartiles cover
the range of past WeHe tests that detected differentiation, and much
of their queuing-delay range.  Here the Section-6.2 grid (one 30 s
detection cell per rate x queue factor) stands against the ISP1-4
per-client models, standing in for the WeHe corpus.  With the wild
models' narrow retx band, the bounds are range overlaps (the emulated
retx minimum within :data:`RETX_SLACK` x the wild maximum) rather than
quartile coverage, plus a spread of emulated delays (larger queue
factors emulate shaping).  No seed axis; ``quick`` runs it unchanged.
"""

from repro.api import SweepRequest, run_sweep
from repro.experiments.scenarios import ScenarioConfig
from repro.experiments.wild import WILD_ISPS, WildReplayService
from repro.stats.empirical import summarize
from repro.wehe.apps import make_trace

GRID_FACTORS = (1.3, 1.5, 2.0, 2.5)
GRID_QUEUES = (0.25, 0.5, 1.0)
WILD = ("ISP1", "ISP2", "ISP3", "ISP4")
DURATION = 30.0

RETX_SLACK = 2.0


def _wild_replay(isp_name):
    service = WildReplayService(WILD_ISPS[isp_name], "netflix", seed=7, duration=DURATION)
    return service.simultaneous_replay(
        make_trace("netflix", service.duration, service._trace_rng)
    )


def measure(quick):
    configs = [
        ScenarioConfig(
            app="netflix",
            limiter="common",
            input_rate_factor=factor,
            queue_factor=queue,
            duration=DURATION,
            seed=20 + i * 10 + j,
        )
        for i, factor in enumerate(GRID_FACTORS)
        for j, queue in enumerate(GRID_QUEUES)
    ]
    # A detection record carries its simultaneous replay's mean
    # retransmission rate and queuing delay.
    emulated = run_sweep(SweepRequest.detection(configs)).results
    wild = [_wild_replay(isp_name) for isp_name in WILD]
    return {
        "retx": {
            "emulation": summarize([r.retx_rate for r in emulated]),
            "wild": summarize([r.mean_retx_rate for r in wild]),
        },
        "delay_ms": {
            "emulation": summarize([r.queuing_delay * 1e3 for r in emulated]),
            "wild": summarize([r.mean_queuing_delay * 1e3 for r in wild]),
        },
    }


def failures(report):
    (em_retx, wild_retx), (em_delay, wild_delay) = (
        (report[axis]["emulation"], report[axis]["wild"]) for axis in ("retx", "delay_ms")
    )
    checks = [
        (em_retx["min"] <= RETX_SLACK * wild_retx["max"],
         f"emulated retx min {em_retx['min']:.3f} > {RETX_SLACK}x wild max "
         f"{wild_retx['max']:.3f}"),
        (wild_retx["min"] <= em_retx["max"],
         f"wild retx min {wild_retx['min']:.3f} > emulated max {em_retx['max']:.3f}"),
        (em_delay["min"] <= wild_delay["max"],
         f"emulated delay min {em_delay['min']:.1f} ms > wild max {wild_delay['max']:.1f} ms"),
        (wild_delay["min"] <= em_delay["max"],
         f"wild delay min {wild_delay['min']:.1f} ms > emulated max {em_delay['max']:.1f} ms"),
        (em_delay["max"] > em_delay["min"], "emulated queuing delays do not spread"),
    ]
    return [message for ok, message in checks if not ok]
