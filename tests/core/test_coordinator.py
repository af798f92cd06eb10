"""Coordinator tests (full Section-3.4 flow) with fast scenarios."""

import numpy as np
import pytest

from repro.core.coordinator import (
    CoordinationStatus,
    WeHeYCoordinator,
    rtts_from_traceroutes,
)
from repro.experiments.scenarios import ScenarioConfig
from repro.inet import PolicyInternet, RouteDynamics, TopologyOracle, generate_schedule
from repro.mlab.annotations import AnnotationDatabase
from repro.mlab.topology_construction import build_topology
from repro.mlab.traceroute import collect_month
from repro.mlab.verification import TopologyVerifier


def build_platform():
    rng = np.random.default_rng(41)
    internet = PolicyInternet(seed=0, rng=rng)
    annotations = AnnotationDatabase(internet)
    records = collect_month(internet, rng, tests_per_client=len(internet.servers))
    database = build_topology(records, annotations)
    return internet, annotations, database, rng


@pytest.fixture(scope="module")
def platform():
    return build_platform()


def fail_one_route(internet, database):
    """Fail one client-ISP provider link and let routing converge.

    Returns a client whose first candidate entry the failure made
    stale -- the pair the coordinator tries first.
    """
    events = generate_schedule(
        internet.graph, 1, n_failures=1, n_flips=0, targets=internet.isp_asns
    )
    internet.attach_dynamics(RouteDynamics(events))
    down = events[0]
    internet.advance_to(down.time + down.convergence_s + 1.0)
    for entry, name in TopologyOracle(internet).stale_entries(database):
        client = internet.find_client(name)
        if database.lookup(client.ip, client.asn)[0] == entry:
            return client
    pytest.fail("the failure left no client's first entry stale")


def make_coordinator(platform, duration=25.0):
    internet, annotations, database, rng = platform
    scenario = ScenarioConfig(app="zoom", limiter="common", duration=duration)
    verifier = TopologyVerifier(internet, annotations, rng)
    tdiff = np.random.default_rng(9).normal(0.0, 0.08, 80)
    return WeHeYCoordinator(internet, database, verifier, scenario, rng, tdiff)


def client_with_topology(platform):
    internet, _annotations, database, _rng = platform
    for client in internet.clients:
        if database.lookup(client.ip, client.asn):
            return client
    pytest.fail("fixture internet has no suitable topology")


class TestCoordinator:
    def test_completed_test_localizes_collective_throttling(self, platform):
        coordinator = make_coordinator(platform)
        client = client_with_topology(platform)
        report = coordinator.run_test(client.name, app="zoom")
        assert report.status is CoordinationStatus.COMPLETED
        assert report.server_pair is not None
        assert report.localized

    def test_client_without_topology(self, platform):
        internet, _, database, _ = platform
        missing = None
        for client in internet.clients:
            if not database.lookup(client.ip, client.asn):
                missing = client
                break
        if missing is None:
            pytest.skip("every client has a topology in this fixture")
        coordinator = make_coordinator(platform)
        report = coordinator.run_test(missing.name)
        assert report.status is CoordinationStatus.NO_TOPOLOGY
        assert not report.localized

    def test_route_churn_discards_measurements(self):
        # A private platform: route dynamics mutate the internet.
        churned = build_platform()
        internet, _annotations, database, _rng = churned
        client = fail_one_route(internet, database)
        coordinator = make_coordinator(churned, duration=15.0)
        report = coordinator.run_test(client.name, app="zoom")
        assert report.status is CoordinationStatus.DISCARDED_TOPOLOGY_CHANGED
        assert report.localization is None

    def test_rtt_estimation_from_traceroutes(self, platform):
        internet, _, database, rng = platform
        client = client_with_topology(platform)
        entry = database.lookup(client.ip, client.asn)[0]
        rtt_1, rtt_2 = rtts_from_traceroutes(
            internet, rng, entry.server_pair, client
        )
        assert 0.005 < rtt_1 < 0.5
        assert 0.005 < rtt_2 < 0.5
