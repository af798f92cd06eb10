"""Integration tests: scenarios -> simulator -> detectors.

These run full (but short) simulations; they use reduced durations to
stay fast while still exercising every moving part together.
"""

import dataclasses

import numpy as np
import pytest

from repro.core.loss_correlation import LossTrendCorrelation
from repro.experiments.metrics import RateCounter, tally
from repro.experiments.runner import (
    DetectionExperimentRecord,
    NetsimReplayService,
    _Environment,
    run_detection_experiment,
)
from repro.experiments.scenarios import ScenarioConfig
from repro.netsim.topology import TopologyConfig
from repro.wehe.apps import make_trace

@pytest.fixture(scope="module")
def udp_common_record():
    config = ScenarioConfig(app="zoom", limiter="common", duration=30.0, seed=12)
    return run_detection_experiment(config)


class TestDetectionExperiment:
    def test_udp_common_bottleneck_detected(self, udp_common_record):
        assert udp_common_record.verdicts["loss_trend"]
        assert udp_common_record.differentiation_visible

    def test_record_carries_health_metrics(self, udp_common_record):
        assert udp_common_record.loss_rate_1 > 0
        assert udp_common_record.loss_rate_2 > 0

    def test_multiple_detectors(self):
        from repro.core.tomography import BinLossTomoNoParams

        config = ScenarioConfig(app="zoom", limiter="common", duration=30.0, seed=13)
        record = run_detection_experiment(
            config,
            detectors={
                "loss_trend": LossTrendCorrelation(),
                "tomography": BinLossTomoNoParams(
                    rtt_multiples=(10, 20, 30, 40, 50)
                ),
            },
        )
        assert set(record.verdicts) == {"loss_trend", "tomography"}

    def test_no_limiter_means_little_loss(self):
        config = ScenarioConfig(app="zoom", limiter=None, duration=20.0, seed=14)
        record = run_detection_experiment(config)
        assert record.loss_rate_1 < 0.01
        assert not record.differentiation_visible


class TestReplayService:
    def test_single_replay_produces_samples(self):
        config = ScenarioConfig(app="zoom", limiter="common", duration=20.0, seed=15)
        service = NetsimReplayService(config)
        trace = make_trace("zoom", 20.0, service._trace_rng)
        samples = service.single_replay(trace)
        assert len(samples) == 100
        assert samples.mean() > 0

    def test_original_throttled_below_inverted(self):
        from repro.wehe.traces import bit_invert

        config = ScenarioConfig(app="zoom", limiter="common", duration=20.0, seed=16)
        service = NetsimReplayService(config)
        trace = make_trace("zoom", 20.0, service._trace_rng)
        original = service.simultaneous_replay(trace)
        inverted = service.simultaneous_replay(bit_invert(trace))
        # The bit-inverted replay bypasses the limiter and must lose
        # far fewer packets.
        assert inverted.measurements_1.loss_rate < original.measurements_1.loss_rate

    def test_same_seed_same_throughput(self):
        def run():
            config = ScenarioConfig(
                app="zoom", limiter="common", duration=15.0, seed=17
            )
            service = NetsimReplayService(config)
            trace = make_trace("zoom", 15.0, service._trace_rng)
            return service.simultaneous_replay(trace).mean_throughput_1

        assert run() == run()


    def test_environment_copies_every_shared_knob(self):
        # A knob defined on both configs must reach the topology under
        # its own name; one that is not threaded through fails here
        # instead of silently keeping the topology default.
        config = ScenarioConfig(
            app="zoom",
            rtt_1=0.040,
            rtt_2=0.050,
            queue_factor=1.0,
            duration=4.0,
            seed=3,
            shaper="red",
            shaper_params=(("max_p", 0.2),),
            multipath=2,
            flowlet_gap_s=0.01,
            multipath_shaped=1,
        )
        env = _Environment(config, np.random.SeedSequence(0))
        shared = {f.name for f in dataclasses.fields(TopologyConfig)} & {
            f.name for f in dataclasses.fields(ScenarioConfig)
        }
        assert {"shaper_params", "multipath", "multipath_shaped"} <= shared
        for name in sorted(shared):
            assert getattr(env.topology.config, name) == getattr(config, name), name


class TestMetrics:
    def test_rate_counter(self):
        counter = RateCounter()
        counter.record(True, True)
        counter.record(True, False)
        counter.record(False, True)
        counter.record(False, False)
        assert counter.fn_rate == 0.5
        assert counter.fp_rate == 0.5

    def test_empty_counter(self):
        counter = RateCounter()
        assert counter.fn_rate == 0.0
        assert counter.fp_rate == 0.0

    def test_tally_nests_by_key_and_drops_invisible_positives(self):
        def record(detected, visible=True):
            return DetectionExperimentRecord(
                config=ScenarioConfig(),
                verdicts={"loss_trend": detected},
                differentiation_visible=visible,
            )

        records = [record(True), record(False), record(False, visible=False)]
        keys = [("zoom", "15"), ("zoom", "15"), ("zoom", "35")]
        table = tally(keys, records, True)
        assert table["zoom"]["15"] == {
            "positives": 2, "negatives": 0, "false_negatives": 1, "false_positives": 0,
        }
        assert table["zoom"]["35"]["positives"] == 0
        # Negatives count every record, visible or not.
        assert tally([("zoom",)] * 3, records, False)["zoom"]["false_positives"] == 1
