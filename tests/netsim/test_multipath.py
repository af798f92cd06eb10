"""MultipathLink: ECMP hashing, flowlet switching, degenerate bundles."""

import numpy as np
import pytest

from repro.experiments.runner import NetsimReplayService
from repro.experiments.scenarios import ScenarioConfig
from repro.netsim.engine import Simulator
from repro.netsim.link import Link
from repro.netsim.multipath import (
    EPHEMERAL_PORT_HI,
    EPHEMERAL_PORT_LO,
    MultipathLink,
    ecmp_hash,
    five_tuple,
    five_tuple_key,
    shaped_member_subset,
)
from repro.netsim.packet import DATA, Packet
from repro.netsim.path import Path
from repro.netsim.queues import DropTailQueue
from repro.wehe.apps import make_trace


class Sink:
    def __init__(self, sim=None):
        self.sim = sim
        self.arrivals = []

    def receive(self, packet):
        when = self.sim.now if self.sim else None
        self.arrivals.append((when, packet))


def make_bundle(sim, n, bandwidth=8e6, delay=0.0, **kwargs):
    qdiscs = [DropTailQueue(10_000_000) for _ in range(n)]
    return MultipathLink(sim, "lc", bandwidth, delay, qdiscs, **kwargs)


class TestEcmpHash:
    def test_pinned_values_machine_independent(self):
        # Frozen literals: the assignment of flows to members must be
        # identical on every machine, process, and restart.
        assert ecmp_hash("a") == 6556232348807121594
        assert ecmp_hash("a", seed=7) == 5879294703052079088
        assert ecmp_hash("a", seed=7, epoch=1) == 14093283341565574170

    def test_seed_and_epoch_redraw(self):
        assert ecmp_hash("k", seed=1) != ecmp_hash("k", seed=2)
        assert ecmp_hash("k", epoch=0) != ecmp_hash("k", epoch=1)

    def test_not_linear_in_the_key(self):
        # CRC-32 is GF(2)-linear: hash(a) ^ hash(b) would be constant
        # across seeds, forcing two fixed flows to always co-hash or
        # always split on power-of-two bundles.  SHA-256 must not.
        diffs = {
            (ecmp_hash("flow-1", seed=s) ^ ecmp_hash("flow-2", seed=s))
            for s in range(8)
        }
        assert len(diffs) == 8

    def test_parity_varies_across_seeds(self):
        parities = {ecmp_hash("flow-1", seed=s) % 2 for s in range(32)}
        assert parities == {0, 1}

    def test_five_tuple_pinned(self):
        tup = five_tuple("replay-zoom-1-orig")
        assert tup == ("ip", "replay-zoom-1-orig", 53393, "client", 443)
        assert (
            five_tuple_key(tup) == "ip:replay-zoom-1-orig:53393:client:443"
        )

    def test_five_tuple_derived_port_in_ephemeral_range(self):
        for flow in ("a", "bg-tcp-1-1", "replay-netflix-2-inv"):
            sport = five_tuple(flow)[2]
            assert EPHEMERAL_PORT_LO <= sport <= EPHEMERAL_PORT_HI

    def test_explicit_port_changes_the_key(self):
        assert five_tuple("f", sport=50000) != five_tuple("f", sport=50001)


class TestShapedMemberSubset:
    def test_pinned_draws(self):
        assert shaped_member_subset(4, 2, 0) == (1, 2)
        assert shaped_member_subset(8, 3, 5) == (4, 5, 6)

    def test_full_subset_is_identity(self):
        assert shaped_member_subset(3, 3, 9) == (0, 1, 2)
        assert shaped_member_subset(3, 7, 9) == (0, 1, 2)

    def test_subset_size_and_range(self):
        for seed in range(10):
            subset = shaped_member_subset(5, 2, seed)
            assert len(subset) == 2
            assert all(0 <= member < 5 for member in subset)
            assert subset == tuple(sorted(subset))


class TestMultipathLink:
    def test_routing_is_sticky_per_flow(self):
        sim = Simulator()
        bundle = make_bundle(sim, 4, seed=3)
        sink = Sink(sim)
        path = Path([bundle], sink)
        for flow in ("a", "b", "c"):
            for seq in range(5):
                path.inject(Packet(flow, DATA, seq, 1000))
        sim.run()
        assert len(sink.arrivals) == 15
        # Each flow used exactly one member.
        for flow in ("a", "b", "c"):
            assert bundle.current_assignment(flow) is not None
        total = sum(member.packets_sent for member in bundle.members)
        assert total == 15 == bundle.packets_offered

    def test_register_flow_overrides_derived_tuple(self):
        sim = Simulator()
        bundle = make_bundle(sim, 8, seed=1)
        before = bundle.predicted_assignment("f")
        moved = False
        for sport in range(50000, 50100):
            bundle.register_flow("f", sport)
            if bundle.predicted_assignment("f") != before:
                moved = True
                break
        assert moved  # some port re-draw must re-hash an 8-member bundle

    def test_flowlet_gap_switches_members(self):
        sim = Simulator()
        bundle = make_bundle(sim, 2, seed=2, flowlet_gap_s=0.05)
        sink = Sink(sim)
        path = Path([bundle], sink)

        def burst(at, base_seq):
            for i in range(3):
                sim.schedule(
                    at, path.inject, Packet("f", DATA, base_seq + i, 500)
                )

        for n in range(40):  # pauses of 0.1 s >> gap of 0.05 s
            burst(n * 0.1, n * 10)
        sim.run()
        assert bundle.flowlet_switches > 0
        assert bundle.flow_switches["f"] == bundle.flowlet_switches
        # Both members ended up carrying traffic.
        assert all(m.packets_sent > 0 for m in bundle.members)

    def test_no_flowlet_switching_when_gap_disabled(self):
        sim = Simulator()
        bundle = make_bundle(sim, 2, seed=2)
        sink = Sink(sim)
        path = Path([bundle], sink)
        for n in range(40):
            sim.schedule(n * 0.1, path.inject, Packet("f", DATA, n, 500))
        sim.run()
        assert bundle.flowlet_switches == 0

    def test_aggregate_statistics_sum_members(self):
        sim = Simulator()
        bundle = make_bundle(sim, 3, seed=1)
        sink = Sink(sim)
        path = Path([bundle], sink)
        for flow in ("a", "b", "c", "d"):
            for seq in range(10):
                path.inject(Packet(flow, DATA, seq, 1000))
        sim.run()
        assert bundle.packets_sent == sum(
            m.packets_sent for m in bundle.members
        )
        assert bundle.bytes_sent == sum(m.bytes_sent for m in bundle.members)
        assert bundle.drops == sum(m.drops for m in bundle.members)

    def test_validation(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            MultipathLink(sim, "lc", 8e6, 0.0, [])
        with pytest.raises(ValueError):
            make_bundle(sim, 2, flowlet_gap_s=0.0)

    def test_assignment_history_records_first_and_switches(self):
        # The bench's co-location ground truth integrates over this
        # timeline, so pin its shape: one entry at first assignment,
        # one per flowlet switch, timestamps monotone, members match
        # the live assignment at each point.
        sim = Simulator()
        bundle = make_bundle(sim, 2, seed=2, flowlet_gap_s=0.05)
        sink = Sink(sim)
        path = Path([bundle], sink)
        for n in range(40):  # pauses of 0.1 s >> gap of 0.05 s
            sim.schedule(n * 0.1, path.inject, Packet("f", DATA, n, 500))
        sim.run()
        history = bundle.assignment_history["f"]
        assert len(history) == 1 + bundle.flowlet_switches
        times = [when for when, _ in history]
        assert times == sorted(times)
        # Consecutive entries always change member (no no-op records).
        members = [member for _, member in history]
        assert all(a != b for a, b in zip(members, members[1:]))
        assert members[-1] == bundle.current_assignment("f")

    def test_assignment_history_sticky_flow_single_entry(self):
        sim = Simulator()
        bundle = make_bundle(sim, 4, seed=3)
        sink = Sink(sim)
        path = Path([bundle], sink)
        for seq in range(10):
            path.inject(Packet("f", DATA, seq, 1000))
        sim.run()
        history = bundle.assignment_history["f"]
        assert len(history) == 1
        assert history[0][1] == bundle.current_assignment("f")


class TestDegenerateBundle:
    """A 1-member bundle must be byte-identical to a plain Link."""

    def test_single_member_arrivals_identical(self):
        def run(multi):
            sim = Simulator()
            if multi:
                link = make_bundle(sim, 1, bandwidth=8e6, delay=0.01)
            else:
                link = Link(
                    sim, "lc", 8e6, 0.01, DropTailQueue(10_000_000)
                )
            sink = Sink(sim)
            path = Path([link], sink)
            for flow in ("a", "b"):
                for seq in range(20):
                    path.inject(Packet(flow, DATA, seq, 1200))
            sim.run()
            return [(t, p.flow_id, p.seq) for t, p in sink.arrivals]

        assert run(True) == run(False)

    def test_single_member_replay_byte_identical(self):
        def run(**knobs):
            config = ScenarioConfig(
                app="zoom", limiter="common", duration=4.0, seed=0, **knobs
            )
            service = NetsimReplayService(config)
            trace = make_trace("zoom", 4.0, service._trace_rng)
            result = service.simultaneous_replay(trace)
            return result

        plain = run()
        degenerate = run(multipath=1)
        assert np.array_equal(plain.samples_1, degenerate.samples_1)
        assert np.array_equal(plain.samples_2, degenerate.samples_2)
        assert np.array_equal(
            plain.measurements_1.loss_times,
            degenerate.measurements_1.loss_times,
        )
        assert np.array_equal(
            plain.measurements_2.send_times,
            degenerate.measurements_2.send_times,
        )


class TestTopologyIntegration:
    def test_multipath_spreads_replays_and_background(self):
        config = ScenarioConfig(
            app="zoom", limiter="common", duration=4.0, seed=0, multipath=2
        )
        service = NetsimReplayService(config)
        trace = make_trace("zoom", 4.0, service._trace_rng)
        service.simultaneous_replay(trace)
        link = service.last_environment.topology.link_c
        assert len(link.members) == 2
        assert all(m.packets_sent > 0 for m in link.members)
        assert link.packets_offered == sum(
            m.packets_offered for m in link.members
        )

    def test_shaped_subset_leaves_plain_members(self):
        config = ScenarioConfig(
            app="zoom",
            limiter="common",
            duration=4.0,
            seed=0,
            multipath=4,
            multipath_shaped=2,
        )
        service = NetsimReplayService(config)
        trace = make_trace("zoom", 4.0, service._trace_rng)
        service.simultaneous_replay(trace)
        topology = service.last_environment.topology
        assert len(topology.limiter_qdiscs) == 2

    def test_multipath_requires_packet_fidelity(self):
        with pytest.raises(ValueError):
            ScenarioConfig(app="zoom", multipath=2, fidelity="fluid")
        with pytest.raises(ValueError):
            ScenarioConfig(app="zoom", flowlet_gap_s=0.01)
