"""Every sweep kind through one pipeline: store-less, cold, warm, parallel.

Each kind's cache key and encode/decode pair is exercised here: a warm
rerun must be all hits, simulate nothing, and give back exactly what
the cold run (and a store-less run, and a ``jobs=2`` run) computed.
"""

import pytest

from repro.api import SweepRequest, run_sweep
from repro.experiments.scenarios import ScenarioConfig
from repro.netsim.engine import events_processed_total
from repro.parallel import SweepExecutor
from repro.store import ExperimentStore, record_line

DURATION = 4.0


def _detection(**options):
    configs = [
        ScenarioConfig(app="netflix", duration=DURATION, seed=seed)
        for seed in range(2)
    ]
    return SweepRequest.detection(configs, **options)


def _wild(**options):
    return SweepRequest.wild(["ISP1"], seeds=range(2), fidelity="hybrid", **options)


# kind -> (request factory, ledger kind)
KINDS = {
    "detection": (_detection, "detection_sweep"),
    "wild": (_wild, "wild_sweep"),
}


def _comparable(result):
    """A result list in a form ``==`` compares exactly."""
    if result.kind == "detection":
        return [record_line(record) for record in result.results]
    return list(result.results)


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_storeless_cold_warm_and_parallel_agree(kind, tmp_path):
    make, ledger_kind = KINDS[kind]
    plain = run_sweep(make(jobs=1))
    assert (plain.hits, plain.misses) == (0, 2)

    store = ExperimentStore(tmp_path / "store")
    seen = []
    cold = run_sweep(
        make(jobs=1, store=store, on_result=lambda i, item, r: seen.append(i))
    )
    assert (cold.hits, cold.misses) == (0, 2)
    assert sorted(seen) == [0, 1]

    seen.clear()
    events_before = events_processed_total()
    warm = run_sweep(
        make(
            jobs=1,
            store=ExperimentStore(tmp_path / "store"),
            on_result=lambda i, item, r: seen.append(i),
        )
    )
    assert events_processed_total() == events_before, "warm run simulated"
    assert (warm.hits, warm.misses) == (2, 0)
    assert seen == []

    parallel = run_sweep(make(jobs=2, store=ExperimentStore(tmp_path / "other")))
    assert (parallel.hits, parallel.misses) == (0, 2)

    expected = _comparable(plain)
    for result in (cold, warm, parallel):
        assert result.kind == kind
        assert result.ok
        assert _comparable(result) == expected

    finishes = store.ledger_events("finish")
    assert [event["kind"] for event in finishes] == [ledger_kind] * 2
    assert [event["misses"] for event in finishes] == [2, 0]
    assert [event["hits"] for event in finishes] == [0, 2]


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_jobs_none_means_every_core(kind, monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "3")
    jobs = []

    def fake_map(self, task, items, **kwargs):
        jobs.append(self.jobs)
        return [0.0] * len(items)

    monkeypatch.setattr(SweepExecutor, "map", fake_map)
    make, _ledger_kind = KINDS[kind]
    run_sweep(make(jobs=None))
    assert jobs == [3]
