"""TC end-to-end on the policy-routed internet, scored by the oracle."""

import numpy as np
import pytest

from repro.inet import PolicyInternet, TopologyOracle, generate_as_graph
from repro.inet.policy import is_valley_free
from repro.mlab.annotations import AnnotationDatabase
from repro.mlab.tables import annotation_table, traceroute_table
from repro.mlab.topology_construction import (
    TopologyConstructor,
    build_topology_from_tables,
)
from repro.mlab.traceroute import run_traceroute


def _collect(internet, seed=7):
    rng = np.random.default_rng(seed)
    return [
        run_traceroute(internet, server, client, rng)
        for client in internet.clients
        for server in internet.servers
    ]


@pytest.fixture(scope="module")
def internet():
    graph = generate_as_graph(0, n_ases=300)
    return PolicyInternet(graph=graph, seed=0, n_client_isps=8,
                          clients_per_isp=3)


@pytest.fixture(scope="module")
def messy_internet():
    graph = generate_as_graph(0, n_ases=300)
    return PolicyInternet(
        graph=graph, seed=0, n_client_isps=8, clients_per_isp=3,
        icmp_block_fraction=0.25, alias_fraction=0.3,
    )


@pytest.fixture(scope="module")
def database(internet):
    records = _collect(internet)
    return TopologyConstructor(AnnotationDatabase(internet)).build(records)


class TestPolicyInternet:
    def test_routes_end_at_the_client(self, internet):
        for client in internet.clients[:6]:
            isp = internet.isp_of(client)
            for server in internet.servers:
                route = internet.route(server, client)
                assert route[-1] is isp.last_miles[client.name]

    def test_as_paths_are_valley_free(self, internet):
        for client in internet.clients[:6]:
            for server in internet.servers:
                path = internet.current_as_path(server, client)
                assert path is not None
                assert is_valley_free(internet.graph, path)

    def test_dict_lookups(self, internet):
        client = internet.clients[0]
        assert internet.find_client(client.name) is client
        assert internet.isp_of(client) in internet.isps
        with pytest.raises(KeyError):
            internet.find_client("nonesuch")

    def test_deterministic_construction(self):
        graph = generate_as_graph(1, n_ases=200)
        a = PolicyInternet(graph=graph, seed=5, n_client_isps=4)
        b = PolicyInternet(
            graph=generate_as_graph(1, n_ases=200), seed=5, n_client_isps=4
        )
        assert [c.ip for c in a.clients] == [c.ip for c in b.clients]
        assert [s.ip for s in a.servers] == [s.ip for s in b.servers]


class TestOracleScore:
    def test_tc_is_perfect_on_clean_paths(self, internet, database):
        score = TopologyOracle(internet).score(database)
        assert score["precision"] == 1.0
        assert score["recall"] >= 0.9

    def test_messiness_costs_recall_not_precision(self, messy_internet):
        database = TopologyConstructor(
            AnnotationDatabase(messy_internet)
        ).build(_collect(messy_internet))
        score = TopologyOracle(messy_internet).score(database)
        assert score["precision"] == 1.0

    def test_table_paths_match_object_path(self, internet, messy_internet):
        """Both backends build the record path's database exactly:
        key order, per-key list order and every entry field."""
        for net in (internet, messy_internet):
            records = _collect(net)
            annotations = AnnotationDatabase(net)
            reference = TopologyConstructor(annotations).build(records)
            assert len(reference) > 100
            for backend in ("row", "columnar"):
                built = build_topology_from_tables(
                    traceroute_table(records, backend=backend),
                    annotation_table(annotations, backend=backend),
                )
                assert list(built.entries.items()) == list(
                    reference.entries.items()
                ), backend
