"""UDP replay, FlowCapture, and PathMeasurements tests."""

import numpy as np
import pytest

from repro.netsim.capture import FlowCapture, PathMeasurements, binned_loss_series
from repro.netsim.engine import Simulator
from repro.netsim.link import Link
from repro.netsim.packet import DATA, Packet
from repro.netsim.path import Path
from repro.netsim.queues import DropTailQueue
from repro.netsim.udp import UDP_HEADER_BYTES, UdpReceiver, UdpSender


class TestUdpReplay:
    def test_schedule_is_replayed_exactly(self):
        sim = Simulator()
        link = Link(sim, "l", 100e6, 0.001)
        receiver = UdpReceiver(sim, "u")
        path = Path([link], receiver)
        schedule = [(0.0, 500), (0.01, 600), (0.02, 700)]
        sender = UdpSender(sim, "u", path, schedule)
        sim.run()
        assert sender.packets_sent == 3
        assert receiver.bytes_received == 500 + 600 + 700
        assert receiver.received_seqs == {0, 1, 2}

    def test_start_offset_shifts_transmissions(self):
        sim = Simulator()
        link = Link(sim, "l", 100e6, 0.0)
        receiver = UdpReceiver(sim, "u")
        sender = UdpSender(sim, "u", Path([link], receiver), [(0.0, 500)], start_at=2.0)
        sim.run()
        assert sender.send_times == [2.0]

    def test_loss_events_from_gaps(self):
        sim = Simulator()
        # Slow link with a tiny queue: later packets of a burst drop.
        link = Link(sim, "l", 8e4, 0.001, DropTailQueue(1200))
        receiver = UdpReceiver(sim, "u")
        path = Path([link], receiver)
        schedule = [(i * 1e-4, 500) for i in range(20)]
        UdpSender(sim, "u", path, schedule)
        sim.run(until=60.0)
        lost = receiver.loss_events(schedule, base_delay=0.001)
        assert len(lost) == 20 - len(receiver.received_seqs)
        for when, seq in lost:
            assert seq not in receiver.received_seqs
            assert when == pytest.approx(schedule[seq][0] + 0.001)

    def test_wire_size_includes_header(self):
        sim = Simulator()
        link = Link(sim, "l", 8e6, 0.0)
        receiver = UdpReceiver(sim, "u")
        UdpSender(sim, "u", Path([link], receiver), [(0.0, 1000)])
        sim.run()
        assert link.bytes_sent == 1000 + UDP_HEADER_BYTES

    def test_unsorted_schedule_is_rejected(self):
        sim = Simulator()
        path = Path([Link(sim, "l", 8e6, 0.0)], UdpReceiver(sim, "u"))
        with pytest.raises(ValueError, match="sorted"):
            UdpSender(sim, "u", path, [(0.0, 100), (0.2, 100), (0.1, 100)])

    @pytest.mark.parametrize("schedule, start_at", [([(1.0, 100)], 0.0), ([(0.0, 100)], 1.5)])
    def test_first_datagram_in_the_past_is_rejected(self, schedule, start_at):
        sim = Simulator()
        sim.run(until=2.0)
        path = Path([Link(sim, "l", 8e6, 0.0)], UdpReceiver(sim, "u"))
        with pytest.raises(ValueError, match="current time is 2.0"):
            UdpSender(sim, "u", path, schedule, start_at=start_at)

    def test_streamed_sender_keeps_the_up_front_event_order(self):
        """Datagram times tie with each other, with the other sender's and
        with unrelated events scheduled before, between and during the
        replays; streaming fires what the whole schedule pushed at
        construction fires, in the same order and count."""
        streamed = _tied_run(streamed=True)
        up_front = _tied_run(streamed=False)
        assert streamed == up_front
        log, events = streamed
        assert sum(1 for entry in log if entry[0] in "ab") == 2 * len(TIED_SCHEDULE)
        assert events == len(log)

    def test_pending_holds_one_entry_per_sender(self):
        sim = Simulator()
        schedule = [(i * 0.001, 100) for i in range(2000)]
        for name in "ab":
            path = Path([Link(sim, name, 1e9, 0.0)], UdpReceiver(sim, name))
            UdpSender(sim, name, path, schedule)
        seen = []
        for t in (0.0005, 1.0005, 1.9985):
            sim.schedule_at(t, lambda: seen.append(sim.pending()))
        assert sim.pending() == 2 + 3
        sim.run()
        # Each probe sees both senders' next datagram and the probes left.
        assert seen == [2 + 2, 2 + 1, 2 + 0]


#: Ties within the schedule (0.0, 0.5, 1.0) and, shifted by 0.5, with the
#: other sender's and the ticker's times.
TIED_SCHEDULE = [
    (0.0, 100), (0.0, 200), (0.25, 300), (0.5, 400),
    (0.5, 500), (0.5, 600), (1.0, 700), (1.0, 800),
]


class _LogPath:
    """Path stand-in that logs each datagram as its sender hands it over."""

    def __init__(self, sim, name, log):
        self.sim = sim
        self.name = name
        self.log = log

    def inject(self, packet):
        self.log.append(
            (self.name, packet.seq, packet.size - UDP_HEADER_BYTES, self.sim.now)
        )


def _tied_run(streamed):
    sim = Simulator()
    log = []

    def other(name, again):
        log.append((name, sim.now))
        if again:
            sim.schedule_at(sim.now + 0.25, other, name, again - 1)

    sim.schedule_at(0.5, other, "before", 0)
    sim.schedule_at(0.0, other, "ticker", 6)
    for name, start_at in (("a", 0.0), ("b", 0.5)):
        path = _LogPath(sim, name, log)
        if streamed:
            UdpSender(sim, name, path, TIED_SCHEDULE, start_at=start_at)
        else:
            for seq, (t, size) in enumerate(TIED_SCHEDULE):
                packet = Packet(name, DATA, seq, size + UDP_HEADER_BYTES)
                sim.schedule_at(start_at + t, path.inject, packet)
        sim.schedule_at(0.5, other, "after-" + name, 0)
    sim.run()
    return log, sim.events_processed


class TestFlowCapture:
    def test_throughput_samples_conserve_bytes(self):
        capture = FlowCapture()
        rng = np.random.default_rng(3)
        times = np.sort(rng.uniform(0, 10, 500))
        for t in times:
            capture.on_arrival(float(t), 1000)
        samples = capture.throughput_samples(n_intervals=100)
        total_bits = samples.sum() * (times[-1] - times[0]) / 100
        assert total_bits == pytest.approx(500 * 1000 * 8, rel=0.01)

    def test_sample_count(self):
        capture = FlowCapture()
        for i in range(50):
            capture.on_arrival(i * 0.1, 100)
        assert len(capture.throughput_samples(n_intervals=100)) == 100

    def test_empty_capture(self):
        capture = FlowCapture()
        assert len(capture.throughput_samples()) == 0
        assert capture.mean_throughput() == 0.0

    def test_mean_throughput(self):
        capture = FlowCapture()
        capture.on_arrival(0.0, 1000)
        capture.on_arrival(1.0, 1000)
        assert capture.mean_throughput() == pytest.approx(16000.0)


class TestPathMeasurements:
    def test_loss_rate(self):
        m = PathMeasurements([0.1, 0.2, 0.3, 0.4], [0.25], rtt=0.03)
        assert m.loss_rate == 0.25
        assert m.packets_sent == 4
        assert m.packets_lost == 1

    def test_time_span(self):
        m = PathMeasurements([1.0, 5.0], [3.0], rtt=0.03)
        assert m.time_span() == (1.0, 5.0)

    def test_rejects_bad_rtt(self):
        with pytest.raises(ValueError):
            PathMeasurements([1.0], [], rtt=0.0)


class TestBinnedLossSeries:
    def _measurements(self, send_rate, loss_times, duration, rtt=0.035):
        sends = np.arange(0, duration, 1.0 / send_rate)
        return PathMeasurements(sends, loss_times, rtt)

    def test_conservation_of_losses(self):
        rng = np.random.default_rng(5)
        loss_1 = np.sort(rng.uniform(0, 30, 60))
        loss_2 = np.sort(rng.uniform(0, 30, 40))
        m1 = self._measurements(100, loss_1, 30.0)
        m2 = self._measurements(100, loss_2, 30.0)
        s1, s2 = binned_loss_series(m1, m2, 1.0, min_packets=10)
        assert len(s1) == len(s2)
        assert np.all(s1 >= 0) and np.all(s2 >= 0)

    def test_discards_no_loss_intervals(self):
        # Losses only in the first 10 seconds: later intervals with no
        # loss on either path must be dropped (Algorithm 1 line 4).
        m1 = self._measurements(100, np.linspace(0.5, 9.5, 30), 30.0)
        m2 = self._measurements(100, np.linspace(0.5, 9.5, 30), 30.0)
        s1, _ = binned_loss_series(m1, m2, 1.0)
        assert len(s1) == pytest.approx(10, abs=1)

    def test_discards_low_transmission_intervals(self):
        # Path 2 transmits only 1 packet/s: below min_packets, all
        # intervals are discarded.
        m1 = self._measurements(100, [1.5, 2.5], 30.0)
        m2 = self._measurements(1, [1.6], 30.0)
        s1, s2 = binned_loss_series(m1, m2, 1.0, min_packets=10)
        assert len(s1) == 0 and len(s2) == 0

    def test_too_short_span_returns_empty(self):
        m1 = PathMeasurements([0.0, 0.1], [0.05], rtt=0.03)
        m2 = PathMeasurements([0.0, 0.1], [0.05], rtt=0.03)
        s1, s2 = binned_loss_series(m1, m2, 10.0)
        assert len(s1) == 0 and len(s2) == 0
