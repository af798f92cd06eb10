"""Dynamics through the full stack: staleness, healing, verdict safety."""

import numpy as np
import pytest

from repro.core.coordinator import CoordinationStatus, WeHeYCoordinator
from repro.experiments.scenarios import ScenarioConfig
from repro.faults import RetryPolicy
from repro.inet import (
    PolicyInternet,
    RouteDynamics,
    TopologyOracle,
    generate_as_graph,
    generate_schedule,
)
from repro.mlab.annotations import AnnotationDatabase
from repro.mlab.topology_construction import build_topology
from repro.mlab.traceroute import run_traceroute
from repro.mlab.verification import TopologyVerifier


def _build(seed=0, n_ases=300):
    graph = generate_as_graph(seed, n_ases=n_ases)
    internet = PolicyInternet(graph=graph, seed=seed, n_client_isps=8,
                              clients_per_isp=3)
    annotations = AnnotationDatabase(internet)
    rng = np.random.default_rng(7)
    records = [
        run_traceroute(internet, server, client, rng)
        for client in internet.clients
        for server in internet.servers
    ]
    database = build_topology(records, annotations)
    return internet, annotations, database


@pytest.fixture
def stack():
    return _build()


class TestStalenessLifecycle:
    def test_failure_makes_entries_stale_then_heals(self, stack):
        internet, _annotations, database = stack
        oracle = TopologyOracle(internet)
        events = generate_schedule(internet.graph, 1, n_failures=1,
                                   n_flips=0, targets=internet.isp_asns)
        internet.attach_dynamics(RouteDynamics(events))

        assert oracle.score(database)["precision"] == 1.0
        down = events[0]
        internet.advance_to(down.time + 1e-6)
        assert internet.telemetry["path_changes"] > 0
        stale = oracle.stale_entries(database)
        assert stale

        for entry, _client in stale:
            assert database.invalidate(entry)
        assert oracle.score(database)["precision"] == 1.0

        horizon = max(e.time + e.convergence_s for e in events) + 1.0
        internet.advance_to(horizon)
        assert internet.converged
        assert oracle.stale_entries(database) == []

    def test_stale_window_serves_old_path_until_deadline(self, stack):
        internet, _annotations, database = stack
        events = generate_schedule(internet.graph, 1, n_failures=1,
                                   n_flips=0, targets=internet.isp_asns)
        internet.attach_dynamics(RouteDynamics(events))
        down = events[0]

        affected = None
        before = {}
        for client in internet.clients:
            for server in internet.servers:
                before[(server.name, client.name)] = \
                    internet.current_as_path(server, client)
        internet.advance_to(down.time + 1e-6)
        for (server_name, client_name), old in before.items():
            server = next(s for s in internet.servers
                          if s.name == server_name)
            client = internet.find_client(client_name)
            now = internet.current_as_path(server, client)
            if now != old:
                affected = (server, client, old)
                break
        assert affected is not None
        server, client, old = affected
        # Mid-window the pair still observes its pre-event path.
        assert internet.effective_as_path(server, client) == old
        internet.advance_to(down.time + down.convergence_s + 1.0)
        assert internet.effective_as_path(server, client) == \
            internet.current_as_path(server, client)

    def test_schedule_without_coverage_changes_nothing(self, stack):
        internet, _annotations, database = stack
        oracle = TopologyOracle(internet)
        uncovered = [
            asn for asn in internet.graph.asns
            if internet.graph.tiers[asn] in ("stub", "content")
            and len(internet.graph.providers(asn)) >= 2
            and asn not in internet.isp_asns
            and asn not in {s.asn for s in internet.servers}
        ]
        events = generate_schedule(internet.graph, 2, n_failures=1,
                                   n_flips=0, targets=uncovered[:4])
        internet.attach_dynamics(RouteDynamics(events))
        internet.advance_to(events[0].time + 1e-6)
        assert oracle.stale_entries(database) == []


class TestCoordinatorPreflight:
    def test_preflight_invalidates_stale_and_avoids_wrong_verdicts(
        self, stack
    ):
        internet, annotations, database = stack
        oracle = TopologyOracle(internet)
        events = generate_schedule(internet.graph, 1, n_failures=1,
                                   n_flips=0, targets=internet.isp_asns)
        internet.attach_dynamics(RouteDynamics(events))
        internet.advance_to(events[0].time + 1e-6)
        stale = oracle.stale_entries(database)
        assert stale

        rng = np.random.default_rng(3)
        coordinator = WeHeYCoordinator(
            internet,
            database,
            TopologyVerifier(internet, annotations, rng),
            ScenarioConfig(app="zoom", limiter="common", duration=4.0,
                           fidelity="hybrid"),
            rng,
            np.random.default_rng(9).normal(0.0, 0.08, 80),
            retry_policy=RetryPolicy(max_attempts=3, base_backoff_s=0.0),
            preflight_verify=True,
        )
        client_names = []
        for _entry, client_name in stale:
            if client_name not in client_names:
                client_names.append(client_name)
        for client_name in client_names[:2]:
            report = coordinator.run_test(client_name)
            if report.status is CoordinationStatus.COMPLETED:
                assert oracle.pair_suitable(
                    report.server_pair[0], report.server_pair[1], client_name
                )
        assert (
            coordinator.telemetry["preflight_stale"]
            + coordinator.telemetry["topology_invalidated"]
        ) > 0
