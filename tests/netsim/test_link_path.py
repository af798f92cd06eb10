"""Link and path tests: serialization, delay, forwarding, drops."""

import pytest

from repro.netsim.engine import Simulator
from repro.netsim.link import Link
from repro.netsim.packet import DATA, Packet
from repro.netsim.path import DirectPath, Path
from repro.netsim.queues import DropTailQueue


class Sink:
    def __init__(self, sim=None):
        self.sim = sim
        self.arrivals = []

    def receive(self, packet):
        when = self.sim.now if self.sim else None
        self.arrivals.append((when, packet))


def make_packet(size=1500, flow="f", seq=0):
    return Packet(flow, DATA, seq, size)


class TestLink:
    def test_serialization_plus_propagation_delay(self):
        sim = Simulator()
        link = Link(sim, "l", 8e6, 0.010)  # 1 MB/s, 10 ms
        sink = Sink(sim)
        path = Path([link], sink)
        path.inject(make_packet(size=1000))
        sim.run()
        # 1000 B at 1 MB/s = 1 ms serialization + 10 ms propagation.
        assert sink.arrivals[0][0] == pytest.approx(0.011)

    def test_back_to_back_packets_serialize(self):
        sim = Simulator()
        link = Link(sim, "l", 8e6, 0.0)
        sink = Sink(sim)
        path = Path([link], sink)
        for i in range(3):
            path.inject(make_packet(size=1000, seq=i))
        sim.run()
        times = [t for t, _ in sink.arrivals]
        assert times == pytest.approx([0.001, 0.002, 0.003])

    def test_queue_overflow_drops_silently(self):
        sim = Simulator()
        link = Link(sim, "l", 8e3, 0.0, DropTailQueue(3000))  # slow link
        sink = Sink(sim)
        path = Path([link], sink)
        for i in range(10):
            path.inject(make_packet(size=1500, seq=i))
        sim.run(until=100.0)
        assert link.drops > 0
        assert len(sink.arrivals) < 10

    def test_byte_counters(self):
        sim = Simulator()
        link = Link(sim, "l", 8e6, 0.0)
        path = Path([link], Sink(sim))
        path.inject(make_packet(size=700))
        sim.run()
        assert link.bytes_sent == 700
        assert link.packets_sent == 1

    def test_utilization(self):
        sim = Simulator()
        link = Link(sim, "l", 8e6, 0.0)
        path = Path([link], Sink(sim))
        path.inject(make_packet(size=1000))
        sim.run()
        assert link.utilization(0.01) == pytest.approx(0.1)

    def test_rejects_bad_parameters(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            Link(sim, "l", 0, 0.0)
        with pytest.raises(ValueError):
            Link(sim, "l", 1e6, -1.0)


class TestPath:
    def test_multi_hop_traversal(self):
        sim = Simulator()
        l1 = Link(sim, "l1", 8e6, 0.005)
        l2 = Link(sim, "l2", 8e6, 0.005)
        sink = Sink(sim)
        path = Path([l1, l2], sink)
        path.inject(make_packet(size=1000))
        sim.run()
        # two serializations (1 ms each) + two propagations (5 ms each)
        assert sink.arrivals[0][0] == pytest.approx(0.012)

    def test_propagation_delay_property(self):
        sim = Simulator()
        l1 = Link(sim, "l1", 8e6, 0.003)
        l2 = Link(sim, "l2", 8e6, 0.007)
        path = Path([l1, l2], Sink(sim))
        assert path.propagation_delay == pytest.approx(0.010)

    def test_sinkless_path_ends_at_its_last_link(self):
        def run(background_sink):
            sim = Simulator()
            l1 = Link(sim, "l1", 8e6, 0.005)
            l2 = Link(sim, "l2", 8e6, 0.005)
            background = Path([l1, l2], background_sink)
            for i in range(3):
                background.inject(make_packet(flow="bg", seq=i))
            sink = Sink(sim)
            Path([l2], sink).inject(make_packet(flow="m"))
            sim.run()
            assert l2.packets_sent == 4
            (arrival,) = sink.arrivals
            return sim.events_processed, arrival[0]

        received = Sink()
        events, arrival = run(None)
        events_with_sink, arrival_with_sink = run(received)
        # The same traffic on the shared link, minus one arrival event
        # per background packet.
        assert len(received.arrivals) == 3
        assert events == events_with_sink - 3
        assert arrival == arrival_with_sink

    def test_empty_path_rejected(self):
        with pytest.raises(ValueError):
            Path([], Sink())

    def test_shared_link_between_paths(self):
        sim = Simulator()
        shared = Link(sim, "shared", 8e6, 0.0)
        sink_a, sink_b = Sink(sim), Sink(sim)
        path_a = Path([shared], sink_a)
        path_b = Path([shared], sink_b)
        path_a.inject(make_packet(flow="a"))
        path_b.inject(make_packet(flow="b"))
        sim.run()
        assert len(sink_a.arrivals) == 1
        assert len(sink_b.arrivals) == 1


class TestDirectPath:
    def test_fixed_delay(self):
        sim = Simulator()
        sink = Sink(sim)
        path = DirectPath(sim, 0.020, sink)
        path.inject(make_packet())
        sim.run()
        assert sink.arrivals[0][0] == pytest.approx(0.020)

    def test_jitter_added(self):
        sim = Simulator()
        sink = Sink(sim)
        path = DirectPath(sim, 0.020, sink, jitter=lambda: 0.005)
        path.inject(make_packet())
        sim.run()
        assert sink.arrivals[0][0] == pytest.approx(0.025)
