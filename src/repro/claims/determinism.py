"""Claim: how a sweep runs never changes what it records.

A 3x3x3 detection sweep (input-rate factor x queue factor x seed) runs
four ways, and every record stream must be byte-identical to the
serial one (:func:`repro.store.record_line`, the encoding the store
and ``repro sweep --json`` use):

- ``jobs=1`` vs ``jobs=N`` through the fork executor;
- a cold pass into a temporary experiment store, then a warm pass that
  must be all cache hits (zero simulated events);
- metrics collection off vs on, over three more cells -- metrics only
  observe, and the metered run must actually have counted engine
  events.
"""

import tempfile

from repro.api import SweepRequest, run_sweep
from repro.claims import timed
from repro.experiments.scenarios import ScenarioConfig, severity_grid
from repro.parallel import default_jobs
from repro.store import ExperimentStore, record_line

#: The 3x3x3 sweep axes (leading Table-2 values).
SWEEP_FACTORS = (1.5, 1.3, 2.0)
SWEEP_QUEUES = (0.5, 0.25, 1.0)
SWEEP_SEEDS = range(3)
METRICS_SEEDS = range(3)


def _records(request):
    return [record_line(record) for record in run_sweep(request).results]


def measure(quick):
    duration = 5.0 if quick else 15.0
    # At least two workers, so the fork executor runs on any host.
    jobs = max(2, default_jobs())
    configs = [
        config.with_(duration=duration)
        for config in severity_grid(
            "netflix", SWEEP_SEEDS, factors=SWEEP_FACTORS, queues=SWEEP_QUEUES
        )
    ]
    serial = _records(SweepRequest.detection(configs, jobs=1))
    parallel = _records(SweepRequest.detection(configs, jobs=jobs))
    with tempfile.TemporaryDirectory() as root:
        store = ExperimentStore(root)
        cold = _records(
            SweepRequest.detection(configs, jobs=jobs, store=store, no_cache=True)
        )
        warm, _, warm_events = timed(
            lambda: _records(SweepRequest.detection(configs, jobs=1, store=store))
        )

    metrics_configs = [
        ScenarioConfig(app="netflix", duration=duration, seed=seed)
        for seed in METRICS_SEEDS
    ]
    plain = _records(SweepRequest.detection(metrics_configs, jobs=1))
    metered = run_sweep(SweepRequest.detection(metrics_configs, jobs=1, metrics=True))
    counters = metered.metrics["counters"]
    return {
        "cells": len(configs),
        "duration_s": duration,
        "jobs": jobs,
        "parallel_identical": parallel == serial,
        "cold_identical": cold == serial,
        "warm_identical": warm == serial,
        "warm_events": warm_events,
        "metrics_cells": len(metrics_configs),
        "metrics_identical": plain == [record_line(r) for r in metered.results],
        "metrics_engine_events": counters.get("netsim.engine.events", 0),
        "metrics_counters": len(counters),
    }


def failures(report):
    failures = []
    if not report["parallel_identical"]:
        failures.append(f"jobs=1 and jobs={report['jobs']} records differ")
    if not report["cold_identical"]:
        failures.append("cold store pass records differ from the serial run")
    if not report["warm_identical"]:
        failures.append("warm store pass records differ from the serial run")
    if report["warm_events"]:
        failures.append(
            f"warm store pass simulated {report['warm_events']} events (must be 0)"
        )
    if not report["metrics_identical"]:
        failures.append("enabling metrics changed a record")
    if not report["metrics_engine_events"]:
        failures.append("metered run counted no engine events")
    return failures
