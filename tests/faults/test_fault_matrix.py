"""The fault matrix: every fault type x injection point, coordinated.

Acceptance criteria for the resilience subsystem:

- the coordinator always returns a structured ``CoordinatedReport``,
  never an unhandled exception, whatever faults are injected;
- retries succeed when a later attempt or candidate server pair is
  healthy;
- two runs with the same seed and fault profile produce identical
  statuses.
"""

import itertools
import warnings

import numpy as np
import pytest

from repro.core.coordinator import (
    CoordinatedReport,
    CoordinationStatus,
    WeHeYCoordinator,
    replay_entropy,
)
from repro.experiments.scenarios import ScenarioConfig
from repro.faults import FaultInjector, FaultProfile, FaultSite, RetryPolicy
from repro.inet import PolicyInternet, RouteDynamics, TopologyOracle, generate_schedule
from repro.mlab.annotations import AnnotationDatabase
from repro.mlab.topology_construction import build_topology
from repro.mlab.traceroute import collect_month
from repro.mlab.verification import TopologyVerifier

#: Short replays keep the failure-path simulations cheap; the fault
#: machinery is duration-independent.
DURATION = 8.0


def month_of_traceroutes():
    """One month of traceroutes over a synthetic internet."""
    rng = np.random.default_rng(41)
    internet = PolicyInternet(seed=0, rng=rng)
    annotations = AnnotationDatabase(internet)
    month = collect_month(internet, rng, tests_per_client=len(internet.servers))
    return internet, annotations, month


@pytest.fixture(scope="module")
def records():
    """The month over an internet whose routes stay frozen."""
    return month_of_traceroutes()


def fresh_coordinator(records, profile_spec, seed=1, policy=None):
    """A coordinator over a *fresh* database (runs mutate the database)."""
    internet, annotations, month = records
    database = build_topology(month, annotations)
    rng = np.random.default_rng(seed)
    scenario = ScenarioConfig(app="zoom", limiter="common", duration=DURATION)
    verifier = TopologyVerifier(internet, annotations, rng)
    tdiff = np.random.default_rng(9).normal(0.0, 0.08, 80)
    injector = FaultInjector(FaultProfile.parse(profile_spec), seed=seed)
    coordinator = WeHeYCoordinator(
        internet,
        database,
        verifier,
        scenario,
        rng,
        tdiff,
        retry_policy=policy or RetryPolicy(max_attempts=2, base_backoff_s=0.0),
        fault_injector=injector,
    )
    return coordinator, database


def target_client(records, min_entries=2):
    internet, annotations, month = records
    database = build_topology(month, annotations)
    for client in internet.clients:
        if len(database.lookup(client.ip, client.asn)) >= min_entries:
            return client
    pytest.fail("fixture internet has no client with enough topologies")


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


#: fault spec (always fires) -> expected terminal status.
FAULT_MATRIX = {
    "replay_abort": CoordinationStatus.REPLAY_FAILED,
    "traceroute_timeout": CoordinationStatus.TRACEROUTE_FAILED,
    "stale_topology": CoordinationStatus.NO_TOPOLOGY,
    "truncated_samples": CoordinationStatus.INVALID_MEASUREMENTS,
    "corrupt_loss": CoordinationStatus.INVALID_MEASUREMENTS,
}


class TestFaultMatrix:
    @pytest.mark.parametrize("spec,expected", sorted(FAULT_MATRIX.items()))
    def test_every_fault_yields_a_structured_status(
        self, records, spec, expected
    ):
        client = target_client(records)
        policy = RetryPolicy(max_attempts=1)
        coordinator, _ = fresh_coordinator(records, spec, policy=policy)
        report = coordinator.run_test(client.name, app="zoom")
        assert isinstance(report, CoordinatedReport)
        assert report.status is expected
        assert not report.localized
        assert report.localization is None

    def test_empty_traceroutes_degrade_but_complete(self, records):
        """Empty-hop traceroutes fall back to the default RTT and the
        test still runs to a structured completion."""
        client = target_client(records)
        coordinator, _ = fresh_coordinator(records, "traceroute_empty")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            report = coordinator.run_test(client.name, app="zoom")
        assert report.status is CoordinationStatus.COMPLETED
        assert coordinator.telemetry["traceroute_fallback_rtt"] == 2

    def test_same_seed_and_profile_same_statuses(self, records):
        client = target_client(records)
        specs = ["replay_abort=0.6", "traceroute_timeout=0.7,stale_topology=0.3"]

        def statuses(spec):
            coordinator, _ = fresh_coordinator(
                records, spec, seed=5,
                policy=RetryPolicy(max_attempts=3, base_backoff_s=0.0),
            )
            report = coordinator.run_test(client.name, app="zoom")
            return report.status, tuple(a.failure for a in report.attempts)

        for spec in specs:
            assert statuses(spec) == statuses(spec)

    def test_attempt_log_records_backoff_and_pairs(self, records):
        client = target_client(records)
        policy = RetryPolicy(
            max_attempts=3, base_backoff_s=0.5, backoff_factor=2.0
        )
        coordinator, _ = fresh_coordinator(records, "replay_abort", policy=policy)
        report = coordinator.run_test(client.name, app="zoom")
        assert report.status is CoordinationStatus.REPLAY_FAILED
        assert report.n_attempts == 3
        # Full jitter: each delay is uniform in [0, exponential delay],
        # and the final (abandoning) attempt charges no backoff.
        backoffs = [a.backoff_s for a in report.attempts]
        assert 0.0 <= backoffs[0] <= 0.5
        assert 0.0 <= backoffs[1] <= 1.0
        assert backoffs[2] == 0.0
        assert all(a.server_pair for a in report.attempts)
        # Attempts rotate over candidate pairs, not entries[0] forever.
        assert len({a.server_pair for a in report.attempts}) > 1

    def test_backoff_jitter_is_reproducible(self, records):
        """Same seed + profile -> the same jittered backoff schedule."""
        client = target_client(records)

        def backoffs():
            coordinator, _ = fresh_coordinator(
                records, "replay_abort", seed=7,
                policy=RetryPolicy(
                    max_attempts=3, base_backoff_s=0.5, backoff_factor=2.0
                ),
            )
            report = coordinator.run_test(client.name, app="zoom")
            return [a.backoff_s for a in report.attempts]

        first = backoffs()
        assert backoffs() == first
        assert any(b > 0 for b in first)


class TestRetryRecovery:
    def test_transient_abort_recovers(self, records):
        """replay_abort with max_fires=2: the third attempt completes."""
        client = target_client(records)
        coordinator, _ = fresh_coordinator(
            records, "replay_abort=1.0:2",
            policy=RetryPolicy(max_attempts=3, base_backoff_s=0.0),
        )
        report = coordinator.run_test(client.name, app="zoom")
        assert report.status is CoordinationStatus.COMPLETED
        assert report.n_attempts == 3
        assert [a.failure for a in report.attempts] == [
            CoordinationStatus.REPLAY_FAILED,
            CoordinationStatus.REPLAY_FAILED,
            None,
        ]

    def test_stale_first_candidate_falls_through_to_healthy_pair(self, records):
        """The first candidate entry is stale; the coordinator skips it
        (invalidating it) and completes on the next pair."""
        client = target_client(records, min_entries=2)
        coordinator, database = fresh_coordinator(
            records, "stale_topology=1.0:1",
            policy=RetryPolicy(max_attempts=2, base_backoff_s=0.0),
        )
        first_pair = database.lookup(client.ip, client.asn)[0].server_pair
        before = len(database.lookup(client.ip, client.asn))
        report = coordinator.run_test(client.name, app="zoom")
        assert report.status is CoordinationStatus.COMPLETED
        assert report.server_pair != first_pair
        assert len(database.lookup(client.ip, client.asn)) == before - 1
        assert coordinator.telemetry["stale_topology_entries"] == 1

    def test_mixed_failures_exhaust_retries(self, records):
        """Different failure kinds across attempts -> RETRIES_EXHAUSTED."""
        client = target_client(records)
        coordinator, _ = fresh_coordinator(
            records, "traceroute_timeout=1.0:1,replay_abort=1.0",
            policy=RetryPolicy(max_attempts=2, base_backoff_s=0.0),
        )
        report = coordinator.run_test(client.name, app="zoom")
        assert report.status is CoordinationStatus.RETRIES_EXHAUSTED
        assert [a.failure for a in report.attempts] == [
            CoordinationStatus.TRACEROUTE_FAILED,
            CoordinationStatus.REPLAY_FAILED,
        ]

    def test_time_budget_cuts_off_attempts(self, records):
        client = target_client(records)
        ticks = itertools.count(0, 100.0)
        coordinator, _ = fresh_coordinator(
            records, "replay_abort",
            policy=RetryPolicy(max_attempts=5, max_total_time_s=50.0),
        )
        coordinator._clock = ticks.__next__
        report = coordinator.run_test(client.name, app="zoom")
        assert report.status is CoordinationStatus.RETRIES_EXHAUSTED
        assert report.n_attempts == 0


class TestDiscardPath:
    def test_route_churn_discards_and_invalidates(self):
        """Section 3.4 step 4 stays terminal: measurements discarded,
        entry invalidated through the database API."""
        # A private internet: route dynamics mutate it.
        churned = month_of_traceroutes()
        coordinator, database = fresh_coordinator(
            churned, "none",
            policy=RetryPolicy(max_attempts=3, base_backoff_s=0.0),
        )
        client = fail_one_route(churned[0], database)
        before = len(database.lookup(client.ip, client.asn))
        report = coordinator.run_test(client.name, app="zoom")
        assert report.status is CoordinationStatus.DISCARDED_TOPOLOGY_CHANGED
        assert report.localization is None
        assert len(database.lookup(client.ip, client.asn)) == before - 1
        assert report.n_attempts == 1  # a discard ends the test, no retry


class TestProperties:
    def test_no_fault_profile_escapes_as_exception(self, records):
        """Property-style sweep: random profiles over all sites never
        crash the coordinator, and same-seed reruns agree."""
        client = target_client(records)
        sites = [
            FaultSite.REPLAY_ABORT,
            FaultSite.TRACEROUTE_TIMEOUT,
            FaultSite.TRACEROUTE_EMPTY,
            FaultSite.STALE_TOPOLOGY,
            FaultSite.TRUNCATED_SAMPLES,
            FaultSite.CORRUPT_LOSS,
        ]
        meta_rng = np.random.default_rng(2024)
        for case in range(6):
            probabilities = meta_rng.uniform(0.4, 1.0, len(sites))
            spec = ",".join(
                f"{site}={p:.3f}" for site, p in zip(sites, probabilities)
            )
            coordinator, _ = fresh_coordinator(
                records, spec, seed=case,
                policy=RetryPolicy(max_attempts=2, base_backoff_s=0.0),
            )
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                report = coordinator.run_test(client.name, app="zoom")
            assert isinstance(report, CoordinatedReport)
            assert isinstance(report.status, CoordinationStatus)

    def test_replay_entropy_is_interpreter_stable(self):
        import zlib

        digest = zlib.crc32(b"isp-0-client0")
        assert replay_entropy("isp-0-client0") == digest % (2**31)
        assert replay_entropy("isp-0-client0", attempt_index=1) == (
            (digest + 1) % (2**31)
        )
        assert 0 <= replay_entropy("any") < 2**31
