"""Table store and synthetic-internet tests."""

import numpy as np
import pytest

from repro.inet import PolicyInternet
from repro.mlab.annotations import AnnotationDatabase
from repro.mlab.tables import Table, annotation_table, traceroute_table
from repro.mlab.traceroute import run_traceroute


@pytest.fixture
def internet():
    return PolicyInternet(
        seed=0, rng=np.random.default_rng(9),
        icmp_block_fraction=0.25, alias_fraction=0.15,
    )


class TestTable:
    def test_schema_enforced(self):
        table = Table("t", ("a", "b"))
        table.extend([{"a": 1, "b": 2}])
        with pytest.raises(ValueError):
            table.extend([{"a": 1}])
        with pytest.raises(ValueError):
            table.extend([{"a": 1, "b": 2, "c": 3}])

    def test_scan_with_predicate(self):
        table = Table("t", ("a",))
        for i in range(5):
            table.extend([{"a": i}])
        assert [r["a"] for r in table.scan(lambda r: r["a"] % 2 == 0)] == [0, 2, 4]

    def test_inner_join(self):
        left = Table("l", ("k", "x"))
        right = Table("r", ("k", "y"))
        left.extend([{"k": 1, "x": "a"}])
        left.extend([{"k": 2, "x": "b"}])
        right.extend([{"k": 1, "y": "A"}])
        rows = left.join(right, on="k")
        assert rows == [{"k": 1, "x": "a", "y": "A"}]

    def test_left_join_fills_none(self):
        left = Table("l", ("k", "x"))
        right = Table("r", ("k", "y"))
        left.extend([{"k": 1, "x": "a"}])
        rows = left.join(right, on="k", how="left")
        assert rows == [{"k": 1, "x": "a", "y": None}]

    def test_join_multiplies_matches(self):
        left = Table("l", ("k", "x"))
        right = Table("r", ("k", "y"))
        left.extend([{"k": 1, "x": "a"}])
        right.extend([{"k": 1, "y": "A"}])
        right.extend([{"k": 1, "y": "B"}])
        assert len(left.join(right, on="k")) == 2

    def test_rejects_empty_schema(self):
        with pytest.raises(ValueError):
            Table("t", ())

    def test_rejects_unknown_join_type(self):
        left = Table("l", ("k",))
        with pytest.raises(ValueError):
            left.join(left, on="k", how="outer")


class TestInternetModel:
    def test_every_pair_routes(self, internet):
        for server in internet.servers:
            for client in internet.clients:
                route = internet.route(server, client)
                assert route[-1].asn == client.asn

    def test_route_ends_in_client_isp(self, internet):
        client = internet.clients[0]
        isp = internet.isp_of(client)
        route = internet.route(internet.servers[0], client)
        in_isp = [r for r in route if r.asn == isp.asn]
        assert len(in_isp) >= 3  # border, aggregation, last mile

    def test_interfaces_unique_across_internet(self, internet):
        seen = set()
        for routers in internet.transit_routers.values():
            for router in routers:
                for ip in router.interfaces:
                    assert ip not in seen
                    seen.add(ip)

    def test_find_client(self, internet):
        client = internet.clients[3]
        assert internet.find_client(client.name) is client
        with pytest.raises(KeyError):
            internet.find_client("nope")


class TestBigQueryTables:
    def test_traceroute_table_flattens_hops(self, internet):
        rng = np.random.default_rng(10)
        record = run_traceroute(internet, internet.servers[0], internet.clients[0], rng)
        table = traceroute_table([record])
        assert len(table) == len(record.hops)
        rows = list(table.scan())
        assert rows[0]["hop_index"] == 0
        assert rows[0]["destination_ip"] == internet.clients[0].ip

    def test_merge_annotates_hops(self, internet):
        rng = np.random.default_rng(10)
        record = run_traceroute(internet, internet.servers[0], internet.clients[0], rng)
        annotations = AnnotationDatabase(internet)
        merged = traceroute_table([record]).join(
            annotation_table(annotations), on="hop_ip", how="left"
        )
        assert len(merged) >= len(record.hops)
        assert all("asn" in row for row in merged)

    def test_rtts_monotone_along_path(self, internet):
        rng = np.random.default_rng(12)
        record = run_traceroute(internet, internet.servers[1], internet.clients[2], rng)
        rtts = [hop.rtt_ms for hop in record.hops]
        assert all(b > a for a, b in zip(rtts, rtts[1:]))
