"""Traceroute record semantics tests."""

import numpy as np
import pytest

from repro.inet import PolicyInternet
from repro.mlab.traceroute import collect_month, run_traceroute


@pytest.fixture
def clean():
    rng = np.random.default_rng(14)
    return PolicyInternet(seed=0, rng=rng), rng


class TestRecordStructure:
    def test_links_chain_hops(self, clean):
        internet, rng = clean
        record = run_traceroute(internet, internet.servers[0], internet.clients[0], rng)
        # n hops (incl. destination) -> n links, chained source->dest.
        assert len(record.links) == len(record.hops)
        assert record.links[0][0] == record.server_ip
        assert record.links[-1][1] == record.destination_ip

    def test_non_aliased_internet_always_consistent(self, clean):
        internet, rng = clean
        for server in internet.servers:
            record = run_traceroute(internet, server, internet.clients[1], rng)
            for i in range(len(record.links) - 1):
                assert record.links[i][1] == record.links[i + 1][0]

    def test_complete_record_reaches_destination_ip(self, clean):
        internet, rng = clean
        record = run_traceroute(internet, internet.servers[0], internet.clients[0], rng)
        assert record.reached_destination
        assert record.last_hop_ip == internet.clients[0].ip

    def test_collect_month_covers_all_clients(self, clean):
        internet, rng = clean
        records = collect_month(internet, rng)
        destinations = {r.destination_ip for r in records}
        assert destinations == {c.ip for c in internet.clients}

    def test_collect_month_respects_tests_per_client(self, clean):
        internet, rng = clean
        records = collect_month(internet, rng, tests_per_client=2)
        per_client = {}
        for record in records:
            per_client.setdefault(record.destination_ip, 0)
            per_client[record.destination_ip] += 1
        assert all(count == 2 for count in per_client.values())
