"""Figure-1 topology builder and background-traffic tests."""

import numpy as np
import pytest

from repro.netsim.background import (
    ModulatedPoissonBackground,
    SteadyAppSource,
    TcpBackgroundPool,
)
from repro.netsim.engine import Simulator
from repro.netsim.path import Path
from repro.netsim.queues import DropTailQueue
from repro.netsim.token_bucket import DualClassQdisc
from repro.netsim.topology import FigureOneTopology, TopologyConfig


class CountingSink:
    """Path sink that counts what it receives (shared with other tests)."""

    def __init__(self):
        self.packets = 0
        self.bytes = 0

    def receive(self, packet):
        self.packets += 1
        self.bytes += packet.size


class TestTopologyConfig:
    def test_defaults_are_valid(self):
        TopologyConfig()

    def test_rejects_unknown_limiter(self):
        with pytest.raises(ValueError):
            TopologyConfig(limiter="everywhere")

    def test_rejects_impossible_rtt(self):
        with pytest.raises(ValueError):
            TopologyConfig(rtt_1=0.001, common_delay_s=0.002)

    @pytest.mark.parametrize("knobs", [
        {"limiter": "common", "shaper": "red", "fidelity": "hybrid"},
        {"limiter": "perflow", "shaper": "codel", "fidelity": "hybrid"},
        {"rtt_1": 0.003},
        {"shaper": "red"},
        {"limiter": "common", "shaper": "wfq"},
        {"multipath": -1},
        {"multipath": 2, "flowlet_gap_s": 0.0},
    ])
    def test_rejects_unbuildable_device_knobs(self, knobs):
        with pytest.raises(ValueError):
            TopologyConfig(**knobs)


class TestFigureOneTopology:
    def test_paths_share_only_the_common_link(self):
        sim = Simulator()
        topology = FigureOneTopology(sim, TopologyConfig())
        p1 = topology.forward_path(1, CountingSink())
        p2 = topology.forward_path(2, CountingSink())
        shared = set(p1.links) & set(p2.links)
        assert shared == {topology.link_c}

    def test_common_limiter_placement(self):
        sim = Simulator()
        topology = FigureOneTopology(
            sim, TopologyConfig(limiter="common", limiter_rate_bps=2e6)
        )
        assert isinstance(topology.link_c.qdisc, DualClassQdisc)
        assert isinstance(topology.link_1.qdisc, DropTailQueue)
        assert topology.limiter_qdisc is topology.link_c.qdisc

    def test_noncommon_limiter_placement(self):
        sim = Simulator()
        topology = FigureOneTopology(
            sim, TopologyConfig(limiter="noncommon", limiter_rate_bps=2e6)
        )
        assert isinstance(topology.link_1.qdisc, DualClassQdisc)
        assert isinstance(topology.link_2.qdisc, DualClassQdisc)
        assert isinstance(topology.link_c.qdisc, DropTailQueue)
        assert topology.limiter_qdisc is None

    def test_rtt_composition(self):
        sim = Simulator()
        config = TopologyConfig(rtt_1=0.040, rtt_2=0.080)
        topology = FigureOneTopology(sim, config)
        for which in (1, 2):
            forward = (
                topology.noncommon_links[which - 1].delay_s + config.common_delay_s
            )
            reverse = topology.rtt(which) / 2.0
            assert forward + reverse == pytest.approx(topology.rtt(which), rel=0.01)

    def test_extra_servers(self):
        sim = Simulator()
        topology = FigureOneTopology(
            sim, TopologyConfig(extra_server_rtts=(0.05, 0.06))
        )
        assert len(topology.noncommon_links) == 4
        p3 = topology.forward_path(3, CountingSink())
        assert topology.link_c in p3.links


class TestModulatedBackground:
    def test_mean_rate_approximately_respected(self):
        sim = Simulator()
        rng = np.random.default_rng(5)
        sink = CountingSink()
        from repro.netsim.link import Link

        link = Link(sim, "l", 1e9, 0.001)
        ModulatedPoissonBackground(
            sim, rng, Path([link], sink), 5e6, stop_at=30.0
        )
        sim.run(until=31.0)
        achieved = sink.bytes * 8.0 / 30.0
        assert achieved == pytest.approx(5e6, rel=0.35)

    def test_rate_fluctuates(self):
        sim = Simulator()
        rng = np.random.default_rng(6)
        from repro.netsim.link import Link

        link = Link(sim, "l", 1e9, 0.001)
        bg = ModulatedPoissonBackground(
            sim, rng, Path([link], CountingSink()), 5e6, stop_at=20.0
        )
        rates = []
        for t in np.arange(0.5, 20.0, 0.5):
            sim.run(until=float(t))
            rates.append(bg.current_rate_bps())
        assert np.std(rates) / np.mean(rates) > 0.1

    def test_dscp_marking_fraction(self):
        sim = Simulator()
        rng = np.random.default_rng(7)
        marked = [0, 0]

        class MarkCounter:
            def receive(self, packet):
                marked[packet.dscp] += 1

        from repro.netsim.link import Link

        link = Link(sim, "l", 1e9, 0.0)
        ModulatedPoissonBackground(
            sim, rng, Path([link], MarkCounter()), 5e6, dscp1_fraction=0.75,
            stop_at=20.0,
        )
        sim.run(until=21.0)
        fraction = marked[1] / (marked[0] + marked[1])
        assert fraction == pytest.approx(0.75, abs=0.05)

    def test_independent_generators_decorrelate(self):
        sim = Simulator()
        from repro.netsim.link import Link

        link_a = Link(sim, "a", 1e9, 0.0)
        link_b = Link(sim, "b", 1e9, 0.0)
        bg_a = ModulatedPoissonBackground(
            sim, np.random.default_rng(1), Path([link_a], CountingSink()), 5e6,
            stop_at=40.0,
        )
        bg_b = ModulatedPoissonBackground(
            sim, np.random.default_rng(2), Path([link_b], CountingSink()), 5e6,
            stop_at=40.0,
        )
        rates_a, rates_b = [], []
        for t in np.arange(0.5, 40.0, 0.5):
            sim.run(until=float(t))
            rates_a.append(bg_a.current_rate_bps())
            rates_b.append(bg_b.current_rate_bps())
        correlation = np.corrcoef(rates_a, rates_b)[0, 1]
        assert abs(correlation) < 0.5

    def test_rejects_bad_parameters(self):
        sim = Simulator()
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            ModulatedPoissonBackground(sim, rng, None, 0.0)
        with pytest.raises(ValueError):
            ModulatedPoissonBackground(sim, rng, None, 1e6, dscp1_fraction=2.0)


class TestSteadyAppSource:
    def test_availability_grows_with_time(self):
        source = SteadyAppSource(8e6, start_at=0.0, chunk_bytes=10_000)
        assert source.available_bytes(0.0) >= 10_000
        assert source.available_bytes(1.0) >= 1e6 - 10_000

    def test_next_release_strictly_future(self):
        source = SteadyAppSource(8e6, chunk_bytes=10_000)
        now = 0.0
        for _ in range(50):
            nxt = source.next_release_after(now)
            assert nxt > now
            now = nxt

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError):
            SteadyAppSource(0.0)


class TestTcpBackgroundPool:
    def test_pool_generates_traffic(self):
        sim = Simulator()
        rng = np.random.default_rng(8)
        from repro.netsim.link import Link

        link = Link(sim, "l", 50e6, 0.005)
        pool = TcpBackgroundPool(
            sim, rng, [link], n_longlived=2, short_flow_rate=2.0, stop_at=10.0
        )
        sim.run(until=12.0)
        assert len(pool.senders) > 2  # short flows spawned
        total = sum(s.packets_sent for s in pool.senders)
        assert total > 100
