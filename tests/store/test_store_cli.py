"""The ``python -m repro.store`` surface and the sweep flag validation."""

import json

from repro.cli import main as cli_main
from repro.experiments.runner import DetectionExperimentRecord
from repro.experiments.scenarios import ScenarioConfig
from repro.store import ExperimentStore, record_to_dict
from repro.store.__main__ import main as store_main


def _record(seed=0):
    return DetectionExperimentRecord(
        config=ScenarioConfig(app="zoom", duration=8.0, seed=seed),
        verdicts={"loss_trend": True},
        loss_rate_1=0.004,
        loss_rate_2=0.0055,
    )


def _populated(tmp_path):
    store = ExperimentStore(tmp_path / "store")
    store.put("aa" + "0" * 62, record_to_dict(_record(seed=0)))
    store.put("bb" + "0" * 62, record_to_dict(_record(seed=1)))
    run_id = store.begin_run(kind="detection_sweep", cells=2, hits=0)
    store.finish_run(run_id, kind="detection_sweep", cells=2, hits=0, misses=2)
    return store


class TestStoreCli:
    def test_ls(self, tmp_path, capsys):
        store = _populated(tmp_path)
        assert store_main(["--root", str(store.root), "ls"]) == 0
        out = capsys.readouterr().out
        assert "detection" in out and "app=zoom" in out
        assert len(out.strip().splitlines()) == 2

    def test_ls_kind_filter(self, tmp_path, capsys):
        store = _populated(tmp_path)
        store.put("cc" + "0" * 62, {"kind": "wild", "cell": {"isp": "ISP1"}})
        assert store_main(["--root", str(store.root), "ls", "--kind", "wild"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 1 and "isp=ISP1" in lines[0]

    def test_legacy_tdiff_record_stays_readable(self, tmp_path, capsys):
        # Stores written before the simulated T_diff sweep was removed
        # hold {"kind": "tdiff"} envelopes; they list with no detail.
        store = _populated(tmp_path)
        store.put("cc" + "0" * 62, {"kind": "tdiff", "value": 0.1})
        root = str(store.root)
        assert store_main(["--root", root, "ls"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3
        legacy = [line for line in lines if line.startswith("cc")]
        assert [line.split() for line in legacy] == [["cc" + "0" * 14, "tdiff"]]
        assert store_main(["--root", root, "stats"]) == 0
        assert store_main(["--root", root, "gc", "--dry-run"]) == 0

    def test_show_by_prefix(self, tmp_path, capsys):
        store = _populated(tmp_path)
        assert store_main(["--root", str(store.root), "show", "aa"]) == 0
        shown = json.loads(capsys.readouterr().out)
        assert shown["payload"]["config"]["seed"] == 0

    def test_show_unknown_prefix_fails(self, tmp_path, capsys):
        store = _populated(tmp_path)
        assert store_main(["--root", str(store.root), "show", "ff"]) == 1

    def test_stats_json(self, tmp_path, capsys):
        store = _populated(tmp_path)
        assert store_main(["--root", str(store.root), "stats", "--json"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["records"] == 2
        assert stats["runs"] == 1

    def test_gc(self, tmp_path, capsys):
        store = _populated(tmp_path)
        key = "aa" + "0" * 62
        store.put(key, record_to_dict(_record(seed=7)))  # supersede
        assert store_main(["--root", str(store.root), "gc"]) == 0
        assert "removed 1" in capsys.readouterr().out
        assert ExperimentStore(store.root).get(key)[
            "config"
        ]["seed"] == 7


class TestSweepFlagValidation:
    def test_resume_without_store_errors(self, capsys):
        assert cli_main(["sweep", "--seeds", "1", "--resume"]) == 2
        assert "--store" in capsys.readouterr().err

    def test_no_cache_without_store_errors(self, capsys):
        assert cli_main(["sweep", "--seeds", "1", "--no-cache"]) == 2
        assert "--store" in capsys.readouterr().err
