"""Topology-verification (Section 3.4 step 4) tests."""

import numpy as np
import pytest

from repro.inet import PolicyInternet, RouteDynamics, TopologyOracle, generate_schedule
from repro.mlab.annotations import AnnotationDatabase
from repro.mlab.topology_construction import build_topology
from repro.mlab.traceroute import collect_month
from repro.mlab.verification import TopologyVerifier


@pytest.fixture
def setup():
    rng = np.random.default_rng(33)
    internet = PolicyInternet(seed=0, rng=rng)
    annotations = AnnotationDatabase(internet)
    records = collect_month(internet, rng, tests_per_client=len(internet.servers))
    database = build_topology(records, annotations)
    # Pick any client with a suitable topology.
    for client in internet.clients:
        entries = database.lookup(client.ip, client.asn)
        if entries:
            return internet, annotations, rng, client, entries[0], database
    pytest.fail("no suitable topology in the fixture internet")


class TestTopologyVerifier:
    def test_stable_routes_verify(self, setup):
        internet, annotations, rng, client, entry, _database = setup
        verifier = TopologyVerifier(internet, annotations, rng)
        assert verifier.verify(entry, client.name)

    def test_verification_is_repeatable(self, setup):
        internet, annotations, rng, client, entry, _database = setup
        verifier = TopologyVerifier(internet, annotations, rng)
        assert all(verifier.verify(entry, client.name) for _ in range(3))

    def test_route_changes_eventually_invalidate(self, setup):
        internet, annotations, rng, _client, _entry, database = setup
        verifier = TopologyVerifier(internet, annotations, rng)
        # One client-ISP provider link fails and routing converges
        # around it: every entry the oracle now calls stale must fail
        # verification (the pair converges elsewhere or not at all).
        events = generate_schedule(
            internet.graph, 1, n_failures=1, n_flips=0, targets=internet.isp_asns
        )
        internet.attach_dynamics(RouteDynamics(events))
        down = events[0]
        internet.advance_to(down.time + down.convergence_s + 1.0)
        stale = TopologyOracle(internet).stale_entries(database)
        assert stale
        assert not any(verifier.verify(entry, name) for entry, name in stale)

    def test_unknown_server_fails_closed(self, setup):
        internet, annotations, rng, client, entry, _database = setup
        broken = entry._replace(server_pair=("ghost-1", "ghost-2"))
        verifier = TopologyVerifier(internet, annotations, rng)
        assert not verifier.verify(broken, client.name)


@pytest.mark.parametrize("icmp_block_fraction", [0.0, 1.0], ids=["usable", "blocked"])
def test_draws_the_second_traceroute_only_after_a_usable_first(icmp_block_fraction):
    """The verifier shares its rng with the coordinator, so what it
    draws is part of every later result: a first traceroute that fails
    filter (a) or (b) ends the check before the second is run."""
    from repro.mlab.topology_construction import SuitableTopology, prefix_of
    from repro.mlab.traceroute import run_traceroute

    internet = PolicyInternet(
        seed=0, rng=np.random.default_rng(5), icmp_block_fraction=icmp_block_fraction
    )
    client = internet.clients[0]
    servers = [internet.servers[0], internet.servers[-1]]
    entry = SuitableTopology(
        prefix_of(client.ip), client.asn, tuple(s.name for s in servers), ()
    )
    rng, twin = np.random.default_rng(8), np.random.default_rng(8)
    verifier = TopologyVerifier(internet, AnnotationDatabase(internet), rng)
    assert verifier.verify(entry, client.name) == (icmp_block_fraction == 0.0)
    for server in servers[: 2 if icmp_block_fraction == 0.0 else 1]:
        run_traceroute(internet, server, client, twin)
    assert rng.bit_generator.state == twin.bit_generator.state
