"""The zero-overhead-when-disabled contract of repro.obs.

Two guards: (1) while metrics are disabled the hot path must never
touch the sink at all -- proven by swapping in a sink that raises on
any call; (2) a sanity timing bound with a deliberately generous
margin.  No check enforces a tight overhead budget: a wall-clock bound
that strict would flake under CI load.
"""

import time

from repro import obs
from repro.api import SweepRequest, run_sweep
from repro.experiments.scenarios import ScenarioConfig
from repro.obs import metrics as obs_metrics

DURATION = 4.0


def _config():
    return ScenarioConfig(app="netflix", duration=DURATION, seed=0)


class _BoobyTrappedSink:
    """Explodes on any metrics call; `on` stays False like NULL_SINK."""

    on = False

    def _boom(self, *args, **kwargs):
        raise AssertionError("metrics sink touched while disabled")

    inc = set_gauge = observe = add_span = merge = snapshot = _boom


class TestDisabledPath:
    def test_metrics_are_off_by_default(self):
        assert not obs.enabled()
        assert obs_metrics.SINK is obs_metrics.NULL_SINK

    def test_disabled_sweep_never_touches_the_sink(self, monkeypatch):
        # Replace the null sink with a booby trap: any unguarded
        # SINK.inc()/observe() on the disabled path raises immediately.
        monkeypatch.setattr(obs_metrics, "SINK", _BoobyTrappedSink())
        assert not obs_metrics.ENABLED
        result = run_sweep(SweepRequest.detection([_config()], jobs=1))
        assert len(result.results) == 1

    def test_disabled_overhead_is_small(self):
        configs = [_config()]

        def wall(metrics):
            best = float("inf")
            for _ in range(2):
                start = time.perf_counter()
                run_sweep(SweepRequest.detection(configs, jobs=1, metrics=metrics))
                best = min(best, time.perf_counter() - start)
            return best

        disabled = wall(None)
        enabled = wall(True)
        # Generous bound -- catches an accidental always-on code path,
        # not a 2% regression.
        assert disabled < enabled * 1.5 + 0.5
