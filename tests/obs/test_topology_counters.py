"""TC observability counters and their double-entry cross-check."""

import numpy as np
import pytest

from repro.inet import PolicyInternet
from repro.mlab.annotations import AnnotationDatabase
from repro.mlab.topology_construction import build_topology
from repro.mlab.traceroute import run_traceroute
from repro.obs import harvest_topology_database
from repro.obs import metrics as obs_metrics


def _records(internet, rng):
    return [
        run_traceroute(internet, server, client, rng)
        for client in internet.clients
        for server in internet.servers
    ]


@pytest.fixture
def stack():
    rng = np.random.default_rng(9)
    internet = PolicyInternet(
        seed=0, rng=rng, icmp_block_fraction=0.25, alias_fraction=0.15
    )
    return internet, AnnotationDatabase(internet), _records(internet, rng)


class TestCounters:
    def test_build_books_scans_and_pairs(self, stack):
        internet, annotations, records = stack
        sink = obs_metrics.MetricsSink()
        with obs_metrics.use_sink(sink):
            database = build_topology(records, annotations)
        counters = sink.snapshot()["counters"]
        # One merged row per hop: annotations are unique per IP.
        assert counters["mlab.tc.rows_scanned"] == sum(len(r.hops) for r in records)
        assert counters["mlab.tc.pairs_found"] == len(database) > 0
        assert "mlab.tc.entries_invalidated" not in counters

    def test_double_entry_after_invalidations(self, stack):
        internet, annotations, records = stack
        sink = obs_metrics.MetricsSink()
        with obs_metrics.use_sink(sink):
            database = build_topology(records, annotations)
            dropped = 0
            last = None
            for key in list(database.entries)[:2]:
                for entry in list(database.entries[key]):
                    assert database.invalidate(entry)
                    dropped += 1
                    last = entry
            # A second invalidation of a gone entry must not book.
            assert not database.invalidate(last)
            harvest_topology_database(sink, database)
        assert dropped > 0
        snapshot = sink.snapshot()
        counters = snapshot["counters"]
        assert counters["mlab.tc.entries_invalidated"] == dropped
        assert counters["mlab.tc.entries_total"] == (
            counters["mlab.tc.pairs_found"]
            - counters["mlab.tc.entries_invalidated"]
        )
        assert snapshot["gauges"]["mlab.tc.destinations"] == \
            len(database.destinations)

    def test_disabled_sink_books_nothing(self, stack):
        internet, annotations, records = stack
        sink = obs_metrics.MetricsSink()
        with obs_metrics.use_sink(None):
            build_topology(records, annotations)
        assert sink.snapshot()["counters"] == {}
