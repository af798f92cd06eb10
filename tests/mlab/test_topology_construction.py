"""Topology-construction (Section 3.3) tests over the synthetic internet."""

from dataclasses import replace

import numpy as np
import pytest

from repro.inet import PolicyInternet
from repro.mlab.annotations import AnnotationDatabase
from repro.mlab.tables import annotation_table, traceroute_table
from repro.mlab.topology_construction import (
    SuitableTopology,
    build_topology,
    construct,
    prefix_of,
    topology_coverage,
)
from repro.mlab.traceroute import collect_month, run_traceroute
from repro.mlab.verification import TopologyVerifier


@pytest.fixture
def clean_internet():
    """No ICMP blocking, no aliasing: every traceroute is usable."""
    rng = np.random.default_rng(1)
    return (
        PolicyInternet(seed=0, rng=rng),
        rng,
    )


@pytest.fixture
def messy_internet():
    rng = np.random.default_rng(2)
    return (
        PolicyInternet(
            seed=0, rng=rng, icmp_block_fraction=0.5, alias_fraction=0.6
        ),
        rng,
    )


def _usable(record, annotations):
    """Whether ``record`` passes filters (a) and (b)."""
    _database, complete = construct(
        traceroute_table([record], backend="columnar"),
        annotation_table(annotations, backend="columnar"),
    )
    assert complete in ([], [record.destination_ip])
    return bool(complete)


def _links_consistent(record):
    """Filter (b) as a record states it: subsequent links meet at one IP."""
    return all(a[1] == b[0] for a, b in zip(record.links, record.links[1:]))


class TestPrefix:
    def test_slash24(self):
        assert prefix_of("10.1.2.3") == "10.1.2.0/24"

    def test_other_lengths(self):
        assert prefix_of("10.1.2.3", 8) == "10.0.0.0/8"
        assert prefix_of("10.1.2.3", 16) == "10.1.0.0/16"
        assert prefix_of("10.1.2.3", 32) == "10.1.2.3"

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            prefix_of("not-an-ip")
        with pytest.raises(ValueError):
            prefix_of("1.2.3.4", 20)


class TestFilters:
    def test_clean_traceroute_is_usable(self, clean_internet):
        internet, rng = clean_internet
        record = run_traceroute(
            internet, internet.servers[0], internet.clients[0], rng
        )
        assert record.reached_destination
        assert _links_consistent(record)
        assert _usable(record, AnnotationDatabase(internet))

    def test_icmp_blocking_fails_completeness(self):
        rng = np.random.default_rng(3)
        internet = PolicyInternet(seed=0, rng=rng, icmp_block_fraction=1.0)
        record = run_traceroute(
            internet, internet.servers[0], internet.clients[0], rng
        )
        assert not record.reached_destination
        assert _links_consistent(record)
        assert not _usable(record, AnnotationDatabase(internet))

    def test_aliasing_breaks_link_consistency_sometimes(self):
        rng = np.random.default_rng(4)
        internet = PolicyInternet(seed=0, rng=rng, alias_fraction=1.0)
        annotations = AnnotationDatabase(internet)
        records = [
            run_traceroute(internet, server, internet.clients[0], rng)
            for server in internet.servers
            for _ in range(5)
        ]
        consistent = [_links_consistent(record) for record in records]
        assert not all(consistent)
        assert all(record.reached_destination for record in records)
        assert [_usable(record, annotations) for record in records] == consistent

    def test_annotation_miss_fails_closed(self, clean_internet):
        internet, rng = clean_internet
        empty = AnnotationDatabase(internet, rng=rng, miss_rate=1.0)
        record = run_traceroute(
            internet, internet.servers[0], internet.clients[0], rng
        )
        assert not _usable(record, empty)


class TestLinkBreaks:
    """Hand-built aliasing: a record's hop ``i`` is the far end of its
    link ``i`` (``run_traceroute`` builds them so), and a router that
    answers from another interface changes the near end of link
    ``i + 1``.  The table states that as ``egress_ip != hop_ip``."""

    @pytest.fixture
    def pair(self, clean_internet):
        internet, rng = clean_internet
        annotations = AnnotationDatabase(internet)
        client = internet.clients[0]
        records = {
            server.name: run_traceroute(internet, server, client, rng)
            for server in internet.servers
        }
        entry = build_topology(list(records.values()), annotations).lookup(
            client.ip, client.asn
        )[0]
        return annotations, [records[name] for name in entry.server_pair]

    @pytest.mark.parametrize("end", ["first", "second"])
    def test_every_break_but_the_server_side_drops_the_record(self, pair, end):
        annotations, records = pair
        index = 0 if end == "first" else 1
        record = records[index]
        assert len(build_topology(records, annotations)) == 1
        assert len(record.links) == len(record.hops) >= 3
        for position, link in enumerate(record.links):
            links = list(record.links)
            links[position] = ("192.0.2.1", link[1])
            broken = replace(record, links=tuple(links))
            # Link 0's near end is the server, which no hop reports.
            kept = position == 0
            assert _links_consistent(broken) == kept
            assert _usable(broken, annotations) == kept
            records_now = list(records)
            records_now[index] = broken
            assert len(build_topology(records_now, annotations)) == kept


class TestPairSearch:
    def test_database_contains_suitable_pairs(self, clean_internet):
        internet, rng = clean_internet
        records = collect_month(internet, rng, tests_per_client=len(internet.servers))
        database = build_topology(records, AnnotationDatabase(internet))
        assert len(database) > 0

    def test_suitable_pairs_converge_inside_the_isp(self, clean_internet):
        internet, rng = clean_internet
        annotations = AnnotationDatabase(internet)
        records = collect_month(internet, rng, tests_per_client=len(internet.servers))
        database = build_topology(records, annotations)
        for (prefix, asn), topologies in database.entries.items():
            for topology in topologies:
                assert topology.common_candidates
                for ip in topology.common_candidates:
                    assert annotations.asn(ip) == asn

    def test_same_site_servers_rejected(self, clean_internet):
        # Servers of one site share their whole transit chain: any
        # common node outside the ISP disqualifies the pair.
        internet, rng = clean_internet
        annotations = AnnotationDatabase(internet)
        client = internet.clients[0]
        same_site = [s for s in internet.servers if s.site == "site-0"]
        records = [
            run_traceroute(internet, server, client, rng) for server in same_site[:2]
        ]
        assert all(_usable(record, annotations) for record in records)
        assert len(build_topology(records, annotations)) == 0
        entry = SuitableTopology(
            prefix_of(client.ip),
            internet.isp_of(client).asn,
            tuple(sorted(server.name for server in same_site[:2])),
            (),
        )
        verifier = TopologyVerifier(internet, annotations, rng)
        assert not verifier.verify(entry, client.name)

    def test_lookup_by_client(self, clean_internet):
        internet, rng = clean_internet
        records = collect_month(internet, rng, tests_per_client=len(internet.servers))
        database = build_topology(records, AnnotationDatabase(internet))
        hits = 0
        for client in internet.clients:
            pairs = database.lookup(client.ip, client.asn)
            hits += bool(pairs)
        assert hits > len(internet.clients) / 2


def _coverage(internet, records):
    return topology_coverage(records, AnnotationDatabase(internet))[1]


class TestCoverage:
    def test_coverage_statistics_shape(self, messy_internet):
        internet, rng = messy_internet
        stats = _coverage(internet, collect_month(internet, rng))
        assert 0.0 < stats["complete_fraction"] < 1.0
        assert 0.0 <= stats["suitable_fraction"] <= 1.0
        assert stats["clients"] == len(internet.clients)

    def test_messier_internet_lowers_coverage(self, clean_internet, messy_internet):
        clean_net, clean_rng = clean_internet
        messy_net, messy_rng = messy_internet
        clean_stats = _coverage(clean_net, collect_month(clean_net, clean_rng, tests_per_client=4))
        messy_stats = _coverage(messy_net, collect_month(messy_net, messy_rng, tests_per_client=4))
        assert messy_stats["complete_fraction"] < clean_stats["complete_fraction"]

    def test_empty_records_count_as_clients(self, clean_internet):
        internet, rng = clean_internet
        annotations = AnnotationDatabase(internet)
        traced, untraced = internet.clients[:2]
        records = [
            run_traceroute(internet, server, traced, rng) for server in internet.servers
        ]
        records.append(replace(records[0], destination_ip=untraced.ip, hops=(), links=()))
        database, stats = topology_coverage(records, annotations)
        assert database == build_topology(records, annotations)
        assert stats == {
            "clients": 2,
            "complete_fraction": 0.5,
            "suitable_fraction": 1.0,
        }


class TestSuitableTopologyContract:
    """What every consumer of a database entry relies on."""

    ENTRY = ("10.1.2.0/24", 64512, ("mlab1-lax", "mlab2-nyc"), ("10.1.0.1", "10.1.0.9"))

    def test_fields_in_order(self):
        entry = SuitableTopology(*self.ENTRY)
        assert (
            entry.destination_prefix,
            entry.destination_asn,
            entry.server_pair,
            entry.common_candidates,
        ) == self.ENTRY

    def test_repr(self):
        assert repr(SuitableTopology(*self.ENTRY)) == (
            "SuitableTopology(destination_prefix='10.1.2.0/24', "
            "destination_asn=64512, server_pair=('mlab1-lax', 'mlab2-nyc'), "
            "common_candidates=('10.1.0.1', '10.1.0.9'))"
        )

    def test_equal_entries_hash_alike(self):
        entry, twin = SuitableTopology(*self.ENTRY), SuitableTopology(*self.ENTRY)
        assert entry == twin and entry is not twin
        assert hash(entry) == hash(twin)
        assert len({entry, twin}) == 1
        assert entry != SuitableTopology(*self.ENTRY[:3], ())

    @pytest.mark.parametrize("name", ["destination_prefix", "server_pair", "anything"])
    def test_assignment_raises(self, name):
        entry = SuitableTopology(*self.ENTRY)
        with pytest.raises(AttributeError):
            setattr(entry, name, None)
        assert entry == SuitableTopology(*self.ENTRY)

    def test_pickle_round_trip(self):
        import pickle

        entry = SuitableTopology(*self.ENTRY)
        copy = pickle.loads(pickle.dumps(entry))
        assert type(copy) is SuitableTopology
        assert copy == entry and hash(copy) == hash(entry)
