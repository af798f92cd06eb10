"""Serial-vs-parallel determinism: the acceptance bar for the executor.

The same configs pushed through ``SweepExecutor(jobs=1)`` and
``jobs=4`` must yield byte-identical record streams -- per-cell RNGs
are derived from ``SeedSequence([config.seed, entropy])`` so no state
leaks across cells regardless of scheduling.
"""

import pytest

from repro.api import SweepRequest, run_sweep
from repro.experiments.scenarios import ScenarioConfig, seed_sweep
from repro.store import record_line

DURATION = 8.0


def _configs(n=4, limiter="common"):
    base = ScenarioConfig(app="zoom", limiter=limiter, duration=DURATION, seed=0)
    return list(seed_sweep(base, range(1, n + 1)))


def run_detection_sweep(configs, **kwargs):
    return run_sweep(SweepRequest.detection(configs, **kwargs)).results


def _canon(records):
    return [record_line(record) for record in records]


class TestSerialParallelEquivalence:
    def test_records_byte_identical(self):
        configs = _configs()
        serial = run_detection_sweep(configs, jobs=1)
        parallel = run_detection_sweep(configs, jobs=4)
        assert _canon(serial) == _canon(parallel)

    def test_records_byte_identical_under_fault_profile(self):
        configs = _configs(n=6)
        profile = "replay_abort=0.5"
        serial = run_detection_sweep(configs, jobs=1, fault_profile=profile)
        parallel = run_detection_sweep(configs, jobs=4, fault_profile=profile)
        assert _canon(serial) == _canon(parallel)
        # The profile must actually bite for the test to mean anything.
        statuses = [record.status for record in serial]
        assert "aborted" in statuses
        assert "ok" in statuses

    def test_entropy_changes_results(self):
        configs = _configs(n=2)
        base = run_detection_sweep(configs, jobs=1)
        other = run_detection_sweep(configs, jobs=1, entropy=1)
        assert _canon(base) != _canon(other)

    def test_order_of_configs_does_not_leak_state(self):
        configs = _configs()
        forward = run_detection_sweep(configs, jobs=1)
        backward = run_detection_sweep(list(reversed(configs)), jobs=1)
        assert _canon(forward) == list(reversed(_canon(backward)))

    def test_records_are_frozen(self):
        configs = _configs(n=1)
        (record,) = run_detection_sweep(configs, jobs=1)
        with pytest.raises(AttributeError):
            record.status = "tampered"
