"""The repro.api facade: request validation, result accounting, metrics."""

import pytest

from repro import obs
from repro.api import SweepRequest, SweepResult, run_sweep
from repro.experiments.scenarios import ScenarioConfig
from repro.store import ExperimentStore

DURATION = 4.0


def _configs(n=2):
    return [
        ScenarioConfig(app="netflix", duration=DURATION, seed=seed)
        for seed in range(n)
    ]


class TestSweepRequest:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown sweep kind"):
            SweepRequest(kind="bogus")

    def test_on_result_must_be_callable(self):
        with pytest.raises(TypeError, match="on_result"):
            SweepRequest(kind="detection", on_result="not callable")

    def test_constructors_set_kind(self):
        assert SweepRequest.detection(_configs()).kind == "detection"
        assert SweepRequest.wild().kind == "wild"

    def test_requests_are_frozen(self):
        request = SweepRequest.detection(_configs())
        with pytest.raises(AttributeError):
            request.jobs = 4

    @pytest.mark.parametrize(
        "build",
        [
            lambda: SweepRequest.detection([]),
            lambda: SweepRequest.wild(seeds=()),
            lambda: SweepRequest.wild(isp_names=[]),
        ],
    )
    def test_a_sweep_without_cells_is_rejected(self, build):
        with pytest.raises(ValueError, match="at least one cell"):
            build()

    @pytest.mark.parametrize("jobs", [0, -3, float("nan")])
    def test_jobs_below_one_are_rejected(self, jobs):
        with pytest.raises(ValueError, match="jobs must be >= 1"):
            SweepRequest.detection(_configs(), jobs=jobs)
        with pytest.raises(ValueError, match="jobs must be >= 1"):
            SweepRequest.wild(jobs=jobs)

    def test_jobs_default_and_positive_counts_construct(self):
        assert SweepRequest.detection(_configs()).jobs is None
        assert SweepRequest.detection(_configs(), jobs=1).jobs == 1
        assert SweepRequest.wild(jobs=4).jobs == 4

    @pytest.mark.parametrize("spec", ["replay_abort=2", "replay_abort=nan", "solar_flare=1"])
    def test_bad_fault_spec_is_rejected_at_construction(self, spec):
        with pytest.raises(ValueError):
            SweepRequest.detection(_configs(), fault_profile=spec)

    def test_detection_fidelity_overrides_every_config(self):
        request = SweepRequest.detection(_configs(), fidelity="hybrid")
        assert all(
            config.fidelity == "hybrid" for config in request.params["cells"]
        )
        # Without the knob, per-config fidelity is left alone.
        mixed = _configs() + [_configs()[0].with_(fidelity="hybrid")]
        request = SweepRequest.detection(mixed)
        assert [c.fidelity for c in request.params["cells"]] == [
            "packet",
            "packet",
            "hybrid",
        ]

    def test_wild_carries_fidelity(self):
        assert SweepRequest.wild().params["fidelity"] == "packet"
        assert (
            SweepRequest.wild(fidelity="hybrid").params["fidelity"] == "hybrid"
        )


class TestSweepResult:
    def test_len_and_iter_delegate_to_results(self):
        result = SweepResult(
            kind="detection", results=[1, 2, 3], cells=3, hits=0, misses=3
        )
        assert len(result) == 3
        assert list(result) == [1, 2, 3]


class TestRunSweep:
    def test_storeless_sweep_counts_every_cell_a_miss(self):
        configs = _configs()
        result = run_sweep(SweepRequest.detection(configs, jobs=1))
        assert result.kind == "detection"
        assert (result.cells, result.hits, result.misses) == (2, 0, 2)
        assert len(result.results) == 2
        assert result.metrics is None

    def test_store_accounting_cold_then_warm(self, tmp_path):
        configs = _configs()
        store = ExperimentStore(tmp_path / "store")
        cold = run_sweep(SweepRequest.detection(configs, jobs=1, store=store))
        warm = run_sweep(SweepRequest.detection(configs, jobs=1, store=store))
        assert (cold.hits, cold.misses) == (0, 2)
        assert (warm.hits, warm.misses) == (2, 0)
        assert [r.config for r in warm.results] == [r.config for r in cold.results]

    def test_on_result_fires_only_for_misses_with_original_indices(self, tmp_path):
        configs = _configs(3)
        store = ExperimentStore(tmp_path / "store")
        run_sweep(
            SweepRequest.detection([configs[1]], jobs=1, store=store)
        )  # pre-seed the middle cell
        seen = []
        result = run_sweep(
            SweepRequest.detection(
                configs,
                jobs=1,
                store=store,
                on_result=lambda i, item, rec: seen.append((i, item.seed)),
            )
        )
        assert (result.hits, result.misses) == (1, 2)
        assert sorted(seen) == [(0, 0), (2, 2)]

    def test_raising_on_result_does_not_kill_the_sweep(self, caplog):
        def bad_callback(index, item, record):
            raise RuntimeError("callback boom")

        result = run_sweep(
            SweepRequest.detection(_configs(), jobs=1, on_result=bad_callback)
        )
        assert len(result.results) == 2
        assert any("on_result" in message for message in caplog.messages)

    def test_metrics_true_collects_in_memory_only(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        result = run_sweep(
            SweepRequest.detection(_configs(1), jobs=1, metrics=True)
        )
        assert result.metrics["counters"]["netsim.engine.runs"] == 1
        assert list(tmp_path.iterdir()) == []  # nothing written to disk

    def test_metrics_path_also_writes_jsonl(self, tmp_path):
        path = tmp_path / "metrics.jsonl"
        result = run_sweep(
            SweepRequest.detection(_configs(1), jobs=1, metrics=str(path))
        )
        assert result.metrics is not None
        first_line = path.read_text().splitlines()[0]
        assert '"type": "meta"' in first_line

    def test_nested_collection_merges_into_outer_sink(self):
        outer = obs.MetricsSink()
        with obs.use_sink(outer):
            result = run_sweep(
                SweepRequest.detection(_configs(1), jobs=1, metrics=True)
            )
        assert result.metrics["counters"]["netsim.engine.runs"] == 1
        assert (
            outer.counters["netsim.engine.runs"]
            == result.metrics["counters"]["netsim.engine.runs"]
        )
