"""Toy-size self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload at toy size, untraced and traced, and checks that
every metric ``BENCHMARK.json`` names comes out with its unit, that
every run passes its checks with 0 failed operations and that every
per-layer metric is measured by some workload.  Then it plants a
wrong verdict, a record diff and an accounting violation, and checks
that each one fails the correctness checks.  Exits 1 on any failure.
"""

import json
import os
import sys
from unittest import mock

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402

#: Per-workload keyword arguments that shrink a run to a few seconds.
TOY = {
    "localize-hybrid": {
        "cells": (("zoom", "common"), ("zoom", "noncommon"), ("ISP1", None)),
    },
    "sweep-packet": {"duration": 5.0, "seeds_per_cell": 1},
    "tc-1m": {"sizes": (30_000, 12_000)},
    "service-onehot": {"virtual_s": 60.0},
}

FAILURES = []


def expect(condition, message):
    print(f"{'ok  ' if condition else 'FAIL'} {message}", flush=True)
    if not condition:
        FAILURES.append(message)


def toy_run(workload, trace, spec):
    module = __import__(run.WORKLOADS[workload])
    with mock.patch.object(module, "run", _bind(module.run, TOY[workload])):
        return run.measure(workload, 7, 1, trace, spec)


def _bind(fn, kwargs):
    return lambda seed, seconds, trace: fn(seed, seconds, trace, **kwargs)


def check_emission(spec):
    measured = set()
    for workload in run.WORKLOADS:
        for trace in (False, True):
            outcome, result = toy_run(workload, trace, spec)
            declared = spec["per_layer" if trace else "end_to_end"]
            line = json.loads(json.dumps(result))
            emitted = {
                name: entry["unit"] for name, entry in line["metrics"].items()
                if isinstance(entry["value"], (int, float))
            }
            wanted = {entry["name"]: entry["unit"] for entry in declared}
            expect(
                emitted == wanted and set(line) == {"correct", "attempted", "failed", "metrics"},
                f"{workload} trace={int(trace)}: every metric emitted with its unit",
            )
            expect(line["attempted"] >= 1, f"{workload} trace={int(trace)}: attempted >= 1")
            # The planted checks below mean something only if honest runs pass.
            expect(
                line["correct"] is True and line["failed"] == 0,
                f"{workload} trace={int(trace)}: correct with 0 failed {outcome.problems}",
            )
            if not trace:
                expect(
                    all(entry["value"] > 0 for entry in line["metrics"].values()),
                    f"{workload}: every end-to-end metric is non-zero",
                )
            else:
                measured |= set(outcome.metrics)
    missing = {entry["name"] for entry in spec["per_layer"]} - measured
    expect(not missing, f"every per-layer metric measured by some workload {sorted(missing)}")


def check_planted(spec):
    import localize
    from repro.core.localizer import LocalizationOutcome, LocalizationReport, Mechanism
    from repro.loadgen.driver import VirtualService
    from repro.store import ExperimentStore

    honest = localize.verdict

    def wrong_verdict(cell, seed, tdiff):
        if cell[1] != "noncommon":
            return honest(cell, seed, tdiff)
        return LocalizationReport(
            outcome=LocalizationOutcome.EVIDENCE_IN_TARGET_AREA,
            mechanism=Mechanism.COLLECTIVE_THROTTLING,
            reason="planted",
            reason_code="collective-throttling",
        )

    with mock.patch.object(localize, "verdict", wrong_verdict):
        _, result = toy_run("localize-hybrid", False, spec)
    expect(not result["correct"] and result["failed"] >= 1,
           "planted wrong verdict fails the localize check")

    honest_get = ExperimentStore.get

    def corrupt_get(self, key):
        payload = honest_get(self, key)
        if payload is not None:
            payload = json.loads(json.dumps(payload))
            payload["loss_rate_1"] = -1.0
        return payload

    with mock.patch.object(ExperimentStore, "get", corrupt_get):
        _, result = toy_run("sweep-packet", False, spec)
    expect(not result["correct"], "planted record diff fails the sweep check")

    honest_run = VirtualService.run

    def lose_a_response(self, trace, settle_s=120.0):
        result = honest_run(self, trace, settle_s)
        del result.completions[len(result.completions) // 2]
        return result

    with mock.patch.object(VirtualService, "run", lose_a_response):
        _, result = toy_run("service-onehot", False, spec)
    expect(not result["correct"], "planted accounting violation fails the service check")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    check_emission(spec)
    check_planted(spec)
    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    run.pin_environment()
    sys.exit(main())
