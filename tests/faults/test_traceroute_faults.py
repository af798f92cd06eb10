"""Traceroute fault injection and the fallback-RTT degradation path."""

from collections import Counter

import numpy as np
import pytest

from repro.core.coordinator import (
    TRACEROUTE_FALLBACK_RTT_S,
    TracerouteFallbackWarning,
    rtts_from_traceroutes,
)
from repro.faults import (
    FaultInjector,
    FaultProfile,
    FaultSite,
    TracerouteTimeoutError,
)
from repro.inet import PolicyInternet
from repro.mlab.traceroute import run_traceroute


@pytest.fixture(scope="module")
def internet():
    rng = np.random.default_rng(17)
    return PolicyInternet(seed=0, rng=rng, n_client_isps=3, clients_per_isp=2)


class TestTracerouteFaults:
    def test_timeout_fault_raises(self, internet):
        rng = np.random.default_rng(0)
        injector = FaultInjector(FaultProfile.parse("traceroute_timeout"), seed=0)
        with pytest.raises(TracerouteTimeoutError):
            run_traceroute(
                internet, internet.servers[0], internet.clients[0], rng,
                fault_injector=injector,
            )
        assert injector.fires_by_site[FaultSite.TRACEROUTE_TIMEOUT] == 1

    def test_empty_fault_returns_hopless_record(self, internet):
        rng = np.random.default_rng(0)
        injector = FaultInjector(FaultProfile.parse("traceroute_empty"), seed=0)
        record = run_traceroute(
            internet, internet.servers[0], internet.clients[0], rng,
            fault_injector=injector,
        )
        assert record.hops == ()
        assert record.links == ()
        assert not record.reached_destination
        assert record.last_hop_ip is None

    def test_no_injector_no_fault(self, internet):
        rng = np.random.default_rng(0)
        record = run_traceroute(
            internet, internet.servers[0], internet.clients[0], rng
        )
        assert record.hops


class TestFallbackRtt:
    def test_empty_traceroutes_degrade_to_fallback_with_warning(self, internet):
        rng = np.random.default_rng(1)
        injector = FaultInjector(FaultProfile.parse("traceroute_empty"), seed=1)
        telemetry = Counter()
        pair = (internet.servers[0].name, internet.servers[1].name)
        with pytest.warns(TracerouteFallbackWarning):
            rtts = rtts_from_traceroutes(
                internet, rng, pair, internet.clients[0],
                fault_injector=injector, telemetry=telemetry,
            )
        assert rtts == (TRACEROUTE_FALLBACK_RTT_S, TRACEROUTE_FALLBACK_RTT_S)
        assert telemetry["traceroute_fallback_rtt"] == 2

    def test_healthy_traceroutes_use_measured_rtts(self, internet):
        rng = np.random.default_rng(1)
        telemetry = Counter()
        pair = (internet.servers[0].name, internet.servers[1].name)
        rtts = rtts_from_traceroutes(
            internet, rng, pair, internet.clients[0], telemetry=telemetry
        )
        assert telemetry["traceroute_fallback_rtt"] == 0
        assert all(rtt > 0 for rtt in rtts)


class TestTopologyInvalidation:
    def test_invalidate_removes_entry(self, internet):
        from repro.mlab.annotations import AnnotationDatabase
        from repro.mlab.topology_construction import build_topology
        from repro.mlab.traceroute import collect_month

        rng = np.random.default_rng(17)
        records = collect_month(
            internet, rng, tests_per_client=len(internet.servers)
        )
        database = build_topology(records, AnnotationDatabase(internet))
        assert len(database) > 0
        client = next(
            c for c in internet.clients if database.lookup(c.ip, c.asn)
        )
        entry = database.lookup(client.ip, client.asn)[0]
        before = len(database)
        assert database.invalidate(entry)
        assert len(database) == before - 1
        assert entry not in database.lookup(client.ip, client.asn)
        # Idempotent: a second invalidation is a no-op.
        assert not database.invalidate(entry)

    def test_lookup_returns_a_copy(self, internet):
        from repro.mlab.annotations import AnnotationDatabase
        from repro.mlab.topology_construction import build_topology
        from repro.mlab.traceroute import collect_month

        rng = np.random.default_rng(17)
        records = collect_month(
            internet, rng, tests_per_client=len(internet.servers)
        )
        database = build_topology(records, AnnotationDatabase(internet))
        client = next(
            c for c in internet.clients if database.lookup(c.ip, c.asn)
        )
        entries = database.lookup(client.ip, client.asn)
        entries.clear()
        assert database.lookup(client.ip, client.asn)
