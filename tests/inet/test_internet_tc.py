"""TC end-to-end on the policy-routed internet, scored by the oracle."""

import numpy as np
import pytest

from repro.inet import PolicyInternet, TopologyOracle, generate_as_graph
from repro.inet.policy import is_valley_free
from repro.mlab.annotations import AnnotationDatabase
from repro.mlab.tables import annotation_table, traceroute_table
from repro.mlab.topology_construction import (
    build_topology,
    build_topology_from_tables,
)
from repro.mlab.traceroute import run_traceroute
from tc_reference import reference_build


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
    return build_topology(records, AnnotationDatabase(internet))


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
        database = build_topology(
            _collect(messy_internet), AnnotationDatabase(messy_internet)
        )
        score = TopologyOracle(messy_internet).score(database)
        assert score["precision"] == 1.0

    def test_both_backends_match_the_reference(self, internet, messy_internet):
        """Both backends, and ``build_topology`` over the records, build
        the reference database exactly: key order, per-key list order
        and every entry field."""
        for net in (internet, messy_internet):
            records = _collect(net)
            annotations = AnnotationDatabase(net)
            expected = list(reference_build(
                traceroute_table(records, backend="row"),
                annotation_table(annotations, backend="row"),
            ).entries.items())
            assert sum(len(entries) for _, entries in expected) > 100
            for backend in ("row", "columnar"):
                built = build_topology_from_tables(
                    traceroute_table(records, backend=backend),
                    annotation_table(annotations, backend=backend),
                )
                assert list(built.entries.items()) == expected, backend
            assert list(build_topology(records, annotations).entries.items()) == expected
