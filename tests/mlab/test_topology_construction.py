"""Topology-construction (Section 3.3) tests over the synthetic internet."""

import numpy as np
import pytest

from repro.inet import PolicyInternet
from repro.mlab.annotations import AnnotationDatabase
from repro.mlab.topology_construction import (
    TopologyConstructor,
    prefix_of,
)
from repro.mlab.traceroute import collect_month, run_traceroute


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
        tc = TopologyConstructor(AnnotationDatabase(internet))
        record = run_traceroute(
            internet, internet.servers[0], internet.clients[0], rng
        )
        assert record.reached_destination
        assert tc.is_complete(record)
        assert tc.links_consistent(record)

    def test_icmp_blocking_fails_completeness(self):
        rng = np.random.default_rng(3)
        internet = PolicyInternet(seed=0, rng=rng, icmp_block_fraction=1.0)
        tc = TopologyConstructor(AnnotationDatabase(internet))
        record = run_traceroute(
            internet, internet.servers[0], internet.clients[0], rng
        )
        assert not record.reached_destination
        assert not tc.is_complete(record)

    def test_aliasing_breaks_link_consistency_sometimes(self):
        rng = np.random.default_rng(4)
        internet = PolicyInternet(seed=0, rng=rng, alias_fraction=1.0)
        tc = TopologyConstructor(AnnotationDatabase(internet))
        consistent = [
            tc.links_consistent(
                run_traceroute(internet, server, internet.clients[0], rng)
            )
            for server in internet.servers
            for _ in range(5)
        ]
        assert not all(consistent)

    def test_annotation_miss_fails_closed(self, clean_internet):
        internet, rng = clean_internet
        empty = AnnotationDatabase(internet, rng=rng, miss_rate=1.0)
        tc = TopologyConstructor(empty)
        record = run_traceroute(
            internet, internet.servers[0], internet.clients[0], rng
        )
        assert not tc.is_complete(record)


class TestPairSearch:
    def test_database_contains_suitable_pairs(self, clean_internet):
        internet, rng = clean_internet
        tc = TopologyConstructor(AnnotationDatabase(internet))
        records = collect_month(internet, rng, tests_per_client=len(internet.servers))
        database = tc.build(records)
        assert len(database) > 0

    def test_suitable_pairs_converge_inside_the_isp(self, clean_internet):
        internet, rng = clean_internet
        annotations = AnnotationDatabase(internet)
        tc = TopologyConstructor(annotations)
        records = collect_month(internet, rng, tests_per_client=len(internet.servers))
        database = tc.build(records)
        for (prefix, asn), topologies in database.entries.items():
            for topology in topologies:
                assert topology.common_candidates
                for ip in topology.common_candidates:
                    assert annotations.asn(ip) == asn

    def test_same_site_servers_rejected(self, clean_internet):
        # Servers of one site share their whole transit chain: any
        # common node outside the ISP disqualifies the pair.
        internet, rng = clean_internet
        tc = TopologyConstructor(AnnotationDatabase(internet))
        client = internet.clients[0]
        same_site = [s for s in internet.servers if s.site == "site-0"]
        r1 = run_traceroute(internet, same_site[0], client, rng)
        r2 = run_traceroute(internet, same_site[1], client, rng)
        suitable, _ = tc.pair_is_suitable(
            r1, r2, internet.isp_of(client).asn
        )
        assert not suitable

    def test_lookup_by_client(self, clean_internet):
        internet, rng = clean_internet
        tc = TopologyConstructor(AnnotationDatabase(internet))
        records = collect_month(internet, rng, tests_per_client=len(internet.servers))
        database = tc.build(records)
        hits = 0
        for client in internet.clients:
            pairs = database.lookup(client.ip, client.asn)
            hits += bool(pairs)
        assert hits > len(internet.clients) / 2


def _coverage(internet, records):
    tc = TopologyConstructor(AnnotationDatabase(internet))
    return tc.coverage(records, tc.build(records))


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
