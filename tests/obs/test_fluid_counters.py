"""Double-entry checks for the ``netsim.fluid.*`` counters.

Same principle as the TBF counters: every live hot-path fluid counter
has a harvested counterpart computed independently from the queues'
byte ledgers, and the two must agree -- plus the fluid model's own
conservation law (offered == served + dropped + final backlog) must
hold on real experiment topologies, not just unit-driven queues.
"""

import pickle

import pytest

from repro.api import SweepRequest, run_sweep
from repro.experiments.scenarios import ScenarioConfig
from repro.experiments.wild import run_wild_test
from repro.obs import MetricsSink, use_sink
from repro.store import record_line

DURATION = 4.0


def _configs():
    return [
        ScenarioConfig(
            app="netflix", duration=DURATION, seed=seed, fidelity="hybrid"
        ).with_(limiter=limiter)
        for seed, limiter in ((0, "common"), (1, "perflow"))
    ]


@pytest.fixture(scope="module")
def metered():
    """One serial metered hybrid sweep shared by the cross-checks."""
    return run_sweep(SweepRequest.detection(_configs(), jobs=1, metrics=True))


class TestFluidCounterCorrectness:
    def test_rate_segments_recorded(self, metered):
        assert metered.metrics["counters"]["netsim.fluid.rate_segments"] > 0

    def test_live_deferrals_equal_harvested(self, metered):
        counters = metered.metrics["counters"]
        assert counters["netsim.fluid.deferrals"] > 0
        assert (
            counters["netsim.fluid.deferrals"]
            == counters["netsim.fluid.deferrals_total"]
        )

    def test_live_virtual_drops_equal_harvested(self, metered):
        counters = metered.metrics["counters"]
        assert counters["netsim.fluid.virtual_drop_bytes"] == pytest.approx(
            counters["netsim.fluid.bg_bytes_dropped_total"], rel=1e-9
        )

    def test_byte_conservation_on_experiment_topology(self, metered):
        counters = metered.metrics["counters"]
        backlog = metered.metrics["histograms"][
            "netsim.fluid.final_virtual_backlog_bytes"
        ]["sum"]
        offered = counters["netsim.fluid.bg_bytes_offered_total"]
        assert offered > 0
        assert offered == pytest.approx(
            counters["netsim.fluid.bg_bytes_served_total"]
            + counters["netsim.fluid.bg_bytes_dropped_total"]
            + backlog,
            rel=1e-9,
        )

    def test_packet_mode_emits_no_fluid_counters(self):
        result = run_sweep(
            SweepRequest.detection(
                [ScenarioConfig(app="netflix", duration=DURATION, seed=0)],
                jobs=1,
                metrics=True,
            )
        )
        fluid = [k for k in result.metrics["counters"] if "fluid" in k]
        assert fluid == []


class TestMetricsTransparency:
    def test_metrics_never_change_a_hybrid_record_byte(self, metered):
        bare = run_sweep(SweepRequest.detection(_configs(), jobs=1))
        assert [record_line(r) for r in bare.results] == [
            record_line(r) for r in metered.results
        ]


class TestWildHybridHarvest:
    def test_wild_replays_harvest_fluid_counters(self):
        with use_sink(MetricsSink()) as sink:
            report = run_wild_test("ISP1", seed=0, fidelity="hybrid")
        counters = sink.snapshot()["counters"]
        assert counters["netsim.fluid.virtual_drop_bytes"] > 0
        assert counters["netsim.fluid.virtual_drop_bytes"] == pytest.approx(
            counters["netsim.fluid.bg_bytes_dropped_total"], rel=1e-9
        )
        assert (
            counters["netsim.fluid.deferrals"]
            == counters["netsim.fluid.deferrals_total"]
        )
        # Reports hold ndarrays, so compare them byte for byte.
        bare = run_wild_test("ISP1", seed=0, fidelity="hybrid")
        assert pickle.dumps(bare) == pickle.dumps(report)
