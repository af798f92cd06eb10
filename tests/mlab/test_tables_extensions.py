"""Satellite surfaces added with the columnar engine: bulk append,
table factories, egress semantics, and dict-backed internet lookups."""

import numpy as np
import pytest

from repro.inet import PolicyInternet
from repro.mlab.annotations import AnnotationDatabase
from repro.mlab.tables import (
    TRACEROUTE_COLUMNS,
    Table,
    annotation_table,
    make_table,
    traceroute_table,
)
from repro.mlab.traceroute import run_traceroute


@pytest.fixture
def internet():
    return PolicyInternet(
        seed=0, rng=np.random.default_rng(9),
        icmp_block_fraction=0.25, alias_fraction=0.15,
    )


class TestTableExtensions:
    def test_extend_appends_in_order(self):
        table = Table("t", ("a", "b"))
        table.extend({"a": i, "b": -i} for i in range(4))
        assert [r["a"] for r in table] == [0, 1, 2, 3]

    def test_extend_validates_schema(self):
        table = Table("t", ("a", "b"))
        with pytest.raises(ValueError):
            table.extend([{"a": 1, "b": 2}, {"a": 1}])

    def test_extend_copies_rows(self):
        table = Table("t", ("a",))
        row = {"a": 1}
        table.extend([row])
        row["a"] = 99
        assert list(table)[0]["a"] == 1

    def test_materialize_is_a_noop(self):
        table = Table("t", ("a",))
        table.extend([{"a": 1}])
        table.materialize()
        assert [r["a"] for r in table] == [1]

    def test_where_helpers(self):
        table = Table("t", ("a", "b"))
        table.extend([{"a": "x", "b": "x"}, {"a": "x", "b": "y"},
                      {"a": "z", "b": "y"}])
        assert len(table.where_equals("a", "x")) == 2
        assert len(table.where_columns_equal("a", "b")) == 1
        renamed = table.renamed({"a": "c"})
        assert renamed.columns == ("c", "b")
        assert [r["c"] for r in renamed] == ["x", "x", "z"]


class TestRecordTables:
    def test_traceroute_table_egress_chains_hops(self, internet):
        rng = np.random.default_rng(3)
        record = run_traceroute(
            internet, internet.servers[0], internet.clients[0], rng
        )
        table = traceroute_table([record])
        assert table.columns == TRACEROUTE_COLUMNS
        rows = list(table)
        # Each hop's egress is the from-IP of the next link; the last
        # hop has no next link so its egress equals itself.
        for row, nxt in zip(rows, rows[1:]):
            assert row["egress_ip"] == nxt["hop_ip"] or \
                row["egress_ip"] == row["hop_ip"]
        assert rows[-1]["egress_ip"] == rows[-1]["hop_ip"]

    def test_annotation_table_covers_database(self, internet):
        annotations = AnnotationDatabase(internet)
        table = annotation_table(annotations)
        for row in table:
            assert annotations.asn(row["hop_ip"]) == row["asn"]

    def test_backend_choice(self, internet):
        rng = np.random.default_rng(3)
        records = [run_traceroute(internet, internet.servers[0],
                                  internet.clients[0], rng)]
        row_t = traceroute_table(records, backend="row")
        col_t = traceroute_table(records, backend="columnar")
        assert [dict(r) for r in row_t] == [dict(r) for r in col_t]
        assert not isinstance(col_t, Table)

    def test_make_table_rejects_unknown_backend(self):
        with pytest.raises(ValueError):
            make_table("t", ("a",), backend="csv")


class TestInternetLookups:
    def test_isp_of_is_identity_stable(self, internet):
        for client in internet.clients:
            isp = internet.isp_of(client)
            assert client.name in isp.last_miles or \
                client in isp.clients

    def test_find_client_round_trips(self, internet):
        for client in internet.clients:
            assert internet.find_client(client.name) is client

    def test_unknown_names_raise(self, internet):
        with pytest.raises(KeyError):
            internet.find_client("client-does-not-exist")

        class FakeClient:
            name = "client-does-not-exist"
            isp = "isp-does-not-exist"

        with pytest.raises(KeyError):
            internet.isp_of(FakeClient())
