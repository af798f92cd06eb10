"""Claim: hybrid fidelity reproduces packet fidelity, faster.

The pinned fidelity-gate grid -- detection cells whose packet-mode
verdicts are seed-stable, so a packet/hybrid verdict flip is a model
error, not detector noise -- runs serially in both fidelities (serial
so ``events_processed_total`` counts in-process), plus two wild-ISP
localization cells.  The claim:

- every detection and localization verdict is identical in both
  fidelities;
- re-running the first hybrid cell reproduces its record byte for byte;
- hybrid simulates >= :data:`MIN_EVENTS_REDUCTION` x fewer events and
  runs >= :data:`MIN_WALL_SPEEDUP` x faster than packet on the grid.

``quick`` trims the grid to its first :data:`QUICK_CELLS` cells, never
the cell length: shorter cells make packet-mode verdicts themselves
seed-unstable.
"""

from repro.api import SweepRequest, run_sweep
from repro.claims import timed
from repro.experiments.scenarios import ScenarioConfig
from repro.store import record_line

#: The pinned fidelity-gate grid.  Verdicts at shorter durations flip
#: seed-to-seed in *packet* mode (Algorithm 1 runs out of usable loss
#: intervals), as do the 0.95/1.05 knife-edge congestion factors --
#: such cells cannot gate a fidelity comparison.  These axes were
#: verified verdict-stable in packet mode, so any packet/hybrid
#: disagreement on them is a fluid-model error.
GATE_DURATION = 60.0
GATE_RTTS = (0.015, 0.035, 0.060)
GATE_LIMITERS = ("common", "noncommon")
GATE_CONGESTION = (0.2, 1.15)
GATE_SEEDS = (1, 2)
#: Wild-ISP localization cells gated alongside the detection grid
#: (ISP5 is the delayed-trigger pathological case of Section 5).
GATE_WILD = (("ISP1", 0), ("ISP5", 0))
QUICK_CELLS = 4

MIN_EVENTS_REDUCTION = 5.0
MIN_WALL_SPEEDUP = 3.0


def gate_configs(duration=GATE_DURATION):
    """The pinned verdict-invariance grid (deduplicated, in order)."""
    configs = []
    for rtt_2 in GATE_RTTS:
        for limiter in GATE_LIMITERS:
            for seed in GATE_SEEDS:
                configs.append(
                    ScenarioConfig(
                        app="netflix",
                        limiter=limiter,
                        rtt_2=rtt_2,
                        duration=duration,
                        seed=seed,
                    )
                )
    for factor in GATE_CONGESTION:
        for seed in GATE_SEEDS:
            configs.append(
                ScenarioConfig(
                    app="netflix",
                    congestion_factor=factor,
                    duration=duration,
                    seed=seed,
                )
            )
    # The default congestion factor coincides with an rtt-grid cell;
    # keep each distinct config once.
    return list(dict.fromkeys(configs))


def _wild_verdict(isp, seed, fidelity):
    from repro.experiments.wild import run_wild_test

    report = run_wild_test(isp, seed=seed, fidelity=fidelity)
    return {"localized": report.localized, "outcome": report.outcome.value}


def _sweep(configs, fidelity):
    return run_sweep(
        SweepRequest.detection(configs, jobs=1, fidelity=fidelity)
    ).results


def measure(quick):
    configs = gate_configs()
    if quick:
        configs = configs[:QUICK_CELLS]
    packet, packet_wall, packet_events = timed(lambda: _sweep(configs, "packet"))
    hybrid, hybrid_wall, hybrid_events = timed(lambda: _sweep(configs, "hybrid"))
    flips = [
        {
            "limiter": config.limiter,
            "rtt_2": config.rtt_2,
            "congestion_factor": config.congestion_factor,
            "seed": config.seed,
            "packet": p.verdicts,
            "hybrid": h.verdicts,
        }
        for config, p, h in zip(configs, packet, hybrid)
        if p.verdicts != h.verdicts
    ]
    wild_flips = []
    for isp, seed in GATE_WILD:
        pv = _wild_verdict(isp, seed, "packet")
        hv = _wild_verdict(isp, seed, "hybrid")
        if pv != hv:
            wild_flips.append({"isp": isp, "seed": seed, "packet": pv, "hybrid": hv})
    repeat = _sweep(configs[:1], "hybrid")
    return {
        "cells": len(configs),
        "wild_cells": len(GATE_WILD),
        "duration_s": GATE_DURATION,
        "packet_wall_s": packet_wall,
        "hybrid_wall_s": hybrid_wall,
        "packet_events": packet_events,
        "hybrid_events": hybrid_events,
        "events_reduction": packet_events / hybrid_events if hybrid_events else 0.0,
        "wall_speedup": packet_wall / hybrid_wall if hybrid_wall else 0.0,
        "verdict_flips": flips,
        "wild_verdict_flips": wild_flips,
        "hybrid_deterministic": record_line(repeat[0]) == record_line(hybrid[0]),
    }


def failures(report):
    failures = []
    if report["verdict_flips"]:
        failures.append(
            f"{len(report['verdict_flips'])} detection verdict flip(s) "
            "between packet and hybrid fidelity"
        )
    if report["wild_verdict_flips"]:
        failures.append(
            f"{len(report['wild_verdict_flips'])} wild localization verdict "
            "flip(s) between packet and hybrid fidelity"
        )
    if not report["hybrid_deterministic"]:
        failures.append("re-running a hybrid cell did not reproduce its record")
    if report["events_reduction"] < MIN_EVENTS_REDUCTION:
        failures.append(
            f"hybrid simulated {report['events_reduction']:.2f}x fewer events "
            f"than packet (min {MIN_EVENTS_REDUCTION}x)"
        )
    if report["wall_speedup"] < MIN_WALL_SPEEDUP:
        failures.append(
            f"hybrid wall speedup {report['wall_speedup']:.2f}x "
            f"(min {MIN_WALL_SPEEDUP}x)"
        )
    return failures
