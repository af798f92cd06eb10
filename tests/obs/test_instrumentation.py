"""Cross-checks between instrumented counters and ground truth.

The double-entry principle: every live hot-path counter has an
independent harvested (or record-level) counterpart, and the two must
agree exactly -- that is what makes the metrics trustworthy enough to
debug with.
"""

import pytest

from repro import obs
from repro.api import SweepRequest, run_sweep
from repro.experiments.scenarios import ScenarioConfig
from repro.store import ExperimentStore, record_line

DURATION = 4.0


def _configs(n=2):
    return [
        ScenarioConfig(app="netflix", duration=DURATION, seed=seed)
        for seed in range(n)
    ]


@pytest.fixture(scope="module")
def metered():
    """One serial metered sweep shared by the cross-check tests."""
    return run_sweep(SweepRequest.detection(_configs(), jobs=1, metrics=True))


class TestCounterCorrectness:
    def test_live_tbf_drops_equal_harvested_drops(self, metered):
        counters = metered.metrics["counters"]
        assert counters["netsim.tbf.drops"] > 0
        assert counters["netsim.tbf.drops"] == counters["netsim.tbf.drops_total"]

    def test_cells_counter_matches_record_stream(self, metered):
        counters = metered.metrics["counters"]
        completed = sum(1 for r in metered.results if not r.aborted)
        aborted = sum(1 for r in metered.results if r.aborted)
        assert counters.get("runner.cells_completed", 0) == completed
        assert counters.get("runner.cells_aborted", 0) == aborted

    def test_engine_ran_once_per_cell(self, metered):
        counters = metered.metrics["counters"]
        assert counters["netsim.engine.runs"] == len(metered.results)
        assert counters["netsim.engine.events"] > 0

    def test_store_hits_plus_misses_cover_every_cell(self, tmp_path):
        configs = _configs()
        store = ExperimentStore(tmp_path / "store")
        cold = run_sweep(
            SweepRequest.detection(configs, jobs=1, store=store, metrics=True)
        )
        warm = run_sweep(
            SweepRequest.detection(configs, jobs=1, store=store, metrics=True)
        )
        for result in (cold, warm):
            counters = result.metrics["counters"]
            assert (
                counters.get("store.hits", 0) + counters.get("store.misses", 0)
                == len(configs)
            )
        assert cold.metrics["counters"].get("store.hits", 0) == 0
        assert cold.metrics["counters"]["store.checkpoints"] == len(configs)
        assert warm.metrics["counters"]["store.hits"] == len(configs)


class TestWorkerAggregation:
    def test_parallel_counters_match_serial(self, metered):
        parallel = run_sweep(
            SweepRequest.detection(_configs(), jobs=2, metrics=True)
        )
        serial_counters = metered.metrics["counters"]
        parallel_counters = parallel.metrics["counters"]
        for name in (
            "netsim.engine.events",
            "netsim.tbf.drops",
            "netsim.tcp.retransmits",
            "runner.cells_completed",
        ):
            assert parallel_counters.get(name) == serial_counters.get(name), name


class TestDeterminismInvariant:
    def test_metrics_never_change_a_record_byte(self, metered):
        plain = run_sweep(SweepRequest.detection(_configs(), jobs=1))
        assert plain.metrics is None
        assert [record_line(r) for r in plain.results] == [
            record_line(r) for r in metered.results
        ]

    def test_sweep_leaves_global_state_disabled(self, metered):
        assert not obs.enabled()
