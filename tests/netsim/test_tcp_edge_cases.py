"""TCP edge cases: Karn's rule, recovery details, go-back-N, receivers."""

from repro.netsim.capture import FlowCapture
from repro.netsim.engine import Simulator
from repro.netsim.link import Link
from repro.netsim.packet import ACK, DATA, Packet
from repro.netsim.path import DirectPath, Path
from repro.netsim.queues import DropTailQueue
from repro.netsim.tcp import MAX_RTO, MSS, TcpReceiver, TcpSender

def build(bandwidth=10e6, qdisc=None, stop_at=8.0, **kwargs):
    sim = Simulator()
    link = Link(sim, "l", bandwidth, 0.01, qdisc)
    receiver = TcpReceiver(sim, "f", FlowCapture())
    path = Path([link], receiver)
    reverse = DirectPath(sim, 0.01, None)
    sender = TcpSender(
        sim, "f", path, receiver, reverse, stop_at=stop_at, **kwargs
    )
    reverse.sink = sender
    return sim, sender, receiver, link


class TestKarnsRule:
    def test_retransmitted_segments_do_not_produce_rtt_samples(self):
        sim, sender, receiver, link = build(
            bandwidth=2e6, qdisc=DropTailQueue(8 * (MSS + 52))
        )
        sim.run(until=10.0)
        assert len(sender.retx_log) > 0
        # Every RTT sample must be plausible (non-negative, below the
        # simulation horizon); retransmission-ambiguous samples are
        # excluded by the is_retx echo.
        for _, rtt in sender.rtt_samples:
            assert 0 < rtt < 5.0


class TestReceiver:
    def test_out_of_order_data_is_buffered_not_lost(self):
        sim = Simulator()
        receiver = TcpReceiver(sim, "f")
        acks = []

        class Collector:
            def inject(self, packet):
                acks.append(packet.seq)

        receiver.reverse_path = Collector()
        # Deliver segment 1 before segment 0.
        receiver.receive(Packet("f", DATA, MSS, MSS + 52))
        assert receiver.rcv_nxt == 0
        receiver.receive(Packet("f", DATA, 0, MSS + 52))
        assert receiver.rcv_nxt == 2 * MSS
        assert acks == [0, 2 * MSS]

    def test_duplicate_data_generates_duplicate_ack(self):
        sim = Simulator()
        receiver = TcpReceiver(sim, "f")
        acks = []

        class Collector:
            def inject(self, packet):
                acks.append(packet.seq)

        receiver.reverse_path = Collector()
        receiver.receive(Packet("f", DATA, 0, MSS + 52))
        receiver.receive(Packet("f", DATA, 0, MSS + 52))
        assert acks == [MSS, MSS]

    def test_ack_carries_sack_blocks(self):
        sim = Simulator()
        receiver = TcpReceiver(sim, "f")
        collected = []

        class Collector:
            def inject(self, packet):
                collected.append(packet)

        receiver.reverse_path = Collector()
        receiver.receive(Packet("f", DATA, 2 * MSS, MSS + 52))
        assert collected[-1].sack is not None
        assert 2 * MSS in collected[-1].sack

    def test_ignores_stray_acks(self):
        sim = Simulator()
        receiver = TcpReceiver(sim, "f")
        receiver.receive(Packet("f", ACK, 0, 52))  # must not crash
        assert receiver.packets_received == 0


class TestGoBackN:
    def test_catastrophic_burst_recovers(self):
        # A large window hitting a sudden tiny bottleneck must not
        # reduce the flow to one segment per RTO (the pre-fix failure).
        sim = Simulator()
        fast = Link(sim, "fast", 100e6, 0.005)
        receiver = TcpReceiver(sim, "f", FlowCapture())
        path = Path([fast], receiver)
        reverse = DirectPath(sim, 0.005, None)
        sender = TcpSender(sim, "f", path, receiver, reverse, stop_at=20.0)
        reverse.sink = sender

        def throttle():
            fast.bandwidth_bps = 2e6
            fast.qdisc = DropTailQueue(6 * (MSS + 52))

        sim.schedule(3.0, throttle)
        sim.run(until=21.0)
        # After the collapse the flow must still push on the order of
        # the new bottleneck rate, not ~5 segments/second.
        late_bytes = receiver.bytes_received - 100e6 / 8 * 0  # total
        assert receiver.rcv_nxt > 3.0 * 100e6 / 8 * 0.5  # got the fast phase
        tail_throughput = [
            t for t in sender.send_times if t > 10.0
        ]
        assert len(tail_throughput) > 10 * 10  # >> 1 pkt per 200 ms RTO


class TestSenderLifecycle:
    def test_total_bytes_completion_stops_sending(self):
        sim, sender, receiver, _ = build(total_bytes=50 * MSS, stop_at=None)
        sim.run(until=30.0)
        assert receiver.rcv_nxt == 50 * MSS
        assert sender.snd_una == sender.snd_nxt

    def test_stop_cancels_timers(self):
        sim, sender, receiver, _ = build(stop_at=2.0)
        sim.run(until=2.1)
        sender.stop()
        assert sender._rto_handle is None or sender._rto_handle.cancelled
        assert sender._pace_handle is None or sender._pace_handle.cancelled

    def test_queuing_delay_zero_without_samples(self):
        sim, sender, _, _ = build(stop_at=0.001)
        assert sender.mean_queuing_delay() == 0.0


class TestLazyRto:
    """Re-arming postpones one heap entry; firing times stay exact."""

    @staticmethod
    def idle_sender():
        # A sender that never starts: the test drives its RTO alone and
        # records when the timer fires.
        sim, sender, _, _ = build(stop_at=None, start_at=100.0)
        fired = []
        sender._on_rto = lambda: fired.append(sim.now)
        return sim, sender, fired

    def test_fires_at_the_last_armed_deadline(self):
        sim, sender, fired = self.idle_sender()
        sim.schedule_at(0.0, sender._arm_rto)
        sim.schedule_at(0.3, sender._arm_rto, True)
        sim.schedule_at(0.7, sender._arm_rto, True)
        sim.run(until=5.0)
        assert fired == [0.7 + min(sender.rto, MAX_RTO)]

    def test_unforced_arm_keeps_the_pending_deadline(self):
        sim, sender, fired = self.idle_sender()
        sim.schedule_at(0.0, sender._arm_rto)
        sim.schedule_at(0.4, sender._arm_rto)
        sim.run(until=5.0)
        assert fired == [sender.rto]

    def test_stop_disarms(self):
        sim, sender, fired = self.idle_sender()
        sim.schedule_at(0.0, sender._arm_rto)
        sim.schedule_at(0.2, sender._arm_rto, True)
        sim.schedule_at(0.5, sender.stop)
        sim.run(until=5.0)
        assert fired == []

    def test_disarm_then_rearm_earlier_fires_at_the_earlier_time(self):
        sim, sender, fired = self.idle_sender()
        sim.schedule_at(0.0, sender._arm_rto)  # due at 1.0
        sim.schedule_at(0.3, sender._disarm_rto)

        def rearm_with_shorter_rto():
            sender.rto = 0.2
            sender._arm_rto()

        sim.schedule_at(0.4, rearm_with_shorter_rto)
        sim.run(until=5.0)
        assert fired == [0.4 + 0.2]

    def test_forced_rearm_to_an_earlier_deadline(self):
        sim, sender, fired = self.idle_sender()
        sim.schedule_at(0.0, sender._arm_rto)  # due at 1.0

        def rearm_with_shorter_rto():
            sender.rto = 0.2
            sender._arm_rto(force=True)

        sim.schedule_at(0.5, rearm_with_shorter_rto)
        sim.run(until=5.0)
        assert fired == [0.5 + 0.2]

    def test_ack_stream_leaves_one_rto_heap_entry(self):
        sim, sender, _, _ = build(stop_at=None)
        sim.run(until=3.0)
        assert sender.snd_una > 500 * MSS  # hundreds of advancing ACKs
        entries = [e for e in sim._heap if e[3] == sender._on_rto]
        live = [e for e in entries if not e[2].cancelled]
        assert len(live) == 1
        assert live[0][2] is sender._rto_handle
        # Cancelled entries remain only where a shrinking RTO moved the
        # deadline earlier; one new entry per ACK left ~140 here.
        assert len(entries) < 16
