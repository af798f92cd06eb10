"""TCP behaviour tests: delivery, congestion response, loss accounting."""

import pytest

from repro.netsim.capture import FlowCapture
from repro.netsim.engine import Simulator
from repro.netsim.link import Link
from repro.netsim.path import DirectPath, Path
from repro.netsim.queues import DropTailQueue
from repro.netsim.tcp import MSS, TcpReceiver, TcpSender
from repro.netsim.qdisc import make_qdisc


def build_flow(
    sim,
    bandwidth=10e6,
    delay=0.01,
    qdisc=None,
    total_bytes=None,
    stop_at=10.0,
    pacing=True,
    dscp=0,
    cc="cubic",
):
    link = Link(sim, "l", bandwidth, delay, qdisc)
    capture = FlowCapture()
    receiver = TcpReceiver(sim, "flow", capture)
    path = Path([link], receiver)
    reverse = DirectPath(sim, delay, None)
    sender = TcpSender(
        sim,
        "flow",
        path,
        receiver,
        reverse,
        dscp=dscp,
        cc=cc,
        pacing=pacing,
        total_bytes=total_bytes,
        stop_at=stop_at,
    )
    reverse.sink = sender
    return sender, receiver, capture, link


class TestDelivery:
    def test_transfers_fixed_size_without_loss(self):
        sim = Simulator()
        sender, receiver, _, link = build_flow(sim, total_bytes=200 * MSS)
        sim.run(until=20.0)
        assert receiver.rcv_nxt == 200 * MSS
        assert sender.retransmission_rate == 0.0
        assert link.drops == 0

    def test_throughput_approaches_link_rate(self):
        sim = Simulator()
        sender, receiver, capture, _ = build_flow(sim, bandwidth=5e6, stop_at=10.0)
        sim.run(until=11.0)
        assert capture.mean_throughput() > 0.8 * 5e6

    def test_rtt_estimate_close_to_configured(self):
        sim = Simulator()
        sender, _, _, _ = build_flow(sim, delay=0.025, total_bytes=100 * MSS)
        sim.run(until=20.0)
        assert sender.min_rtt == pytest.approx(0.05, rel=0.2)

    def test_stop_halts_transmissions(self):
        sim = Simulator()
        sender, _, _, _ = build_flow(sim, stop_at=1.0)
        sim.run(until=5.0)
        assert sender.send_times[-1] <= 1.0


class TestCongestionResponse:
    def test_loss_reduces_cwnd(self):
        sim = Simulator()
        # Tight buffer forces drops once cwnd grows.
        sender, _, _, link = build_flow(
            sim, bandwidth=2e6, qdisc=DropTailQueue(8 * (MSS + 52)), stop_at=15.0
        )
        sim.run(until=16.0)
        assert link.drops > 0
        assert sender.retransmission_rate > 0
        assert sender.cwnd < 100

    def test_reno_also_recovers(self):
        sim = Simulator()
        sender, receiver, _, _ = build_flow(
            sim,
            bandwidth=2e6,
            qdisc=DropTailQueue(8 * (MSS + 52)),
            stop_at=10.0,
            cc="reno",
        )
        sim.run(until=12.0)
        assert receiver.rcv_nxt > 0
        # Everything sent before the stop eventually got through.
        assert receiver.bytes_received > 1e6

    def test_throttled_flow_respects_rate_limiter(self):
        sim = Simulator()
        qdisc = make_qdisc("tbf", rate_bps=2e6, rtt_s=0.02, queue_factor=0.5)
        sender, _, capture, _ = build_flow(
            sim, bandwidth=100e6, qdisc=qdisc, stop_at=20.0, dscp=1
        )
        sim.run(until=21.0)
        achieved = capture.mean_throughput()
        assert achieved < 2.3e6  # cannot beat the limiter
        assert achieved > 1.2e6  # but uses a good share of it

    def test_unmarked_flow_bypasses_rate_limiter(self):
        sim = Simulator()
        qdisc = make_qdisc("tbf", rate_bps=2e6, rtt_s=0.02)
        sender, _, capture, _ = build_flow(
            sim, bandwidth=20e6, qdisc=qdisc, stop_at=5.0, dscp=0
        )
        sim.run(until=6.0)
        assert capture.mean_throughput() > 5e6

    def test_retransmissions_logged_with_reasons(self):
        sim = Simulator()
        sender, _, _, _ = build_flow(
            sim, bandwidth=2e6, qdisc=DropTailQueue(8 * (MSS + 52)), stop_at=10.0
        )
        sim.run(until=12.0)
        assert len(sender.retx_log) > 0
        for when, seq, reason in sender.retx_log:
            assert reason in ("fast", "sack", "partial", "rto")
            assert seq % MSS == 0
            assert when >= 0

    def test_unknown_cc_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            build_flow(sim, cc="vegas")


class TestPacing:
    def test_paced_sender_spreads_packets(self):
        sim = Simulator()
        sender, _, _, _ = build_flow(sim, bandwidth=50e6, stop_at=3.0, pacing=True)
        sim.run(until=3.5)
        gaps = [
            b - a for a, b in zip(sender.send_times, sender.send_times[1:])
        ]
        # After startup, at least half the gaps exceed 0.2 ms (no
        # back-to-back line-rate bursts).
        late_gaps = gaps[len(gaps) // 2 :]
        burst_fraction = sum(1 for g in late_gaps if g < 2e-4) / max(len(late_gaps), 1)
        assert burst_fraction < 0.5

    def test_unpaced_sender_bursts(self):
        sim = Simulator()
        sender, _, _, _ = build_flow(sim, bandwidth=50e6, stop_at=3.0, pacing=False)
        sim.run(until=3.5)
        gaps = [
            b - a for a, b in zip(sender.send_times, sender.send_times[1:])
        ]
        burst_fraction = sum(1 for g in gaps if g < 1e-5) / max(len(gaps), 1)
        assert burst_fraction > 0.2


class TestAppLimited:
    def test_sender_never_outruns_application(self):
        from repro.netsim.background import SteadyAppSource

        sim = Simulator()
        link = Link(sim, "l", 100e6, 0.005)
        receiver = TcpReceiver(sim, "f", FlowCapture())
        path = Path([link], receiver)
        reverse = DirectPath(sim, 0.005, None)
        source = SteadyAppSource(1e6, start_at=0.0)
        sender = TcpSender(
            sim, "f", path, receiver, reverse, stop_at=5.0, app_source=source
        )
        reverse.sink = sender
        sim.run(until=6.0)
        # ~1 Mb/s for 5 s = ~625 KB; TCP on a fast link must not exceed
        # the application's writes by more than one chunk.
        assert receiver.rcv_nxt <= source.available_bytes(5.0) + 2 * MSS
        assert receiver.rcv_nxt > 0.5e6 * 5 / 8

    @pytest.mark.parametrize("pacing", [True, False])
    def test_send_loop_asks_any_app_source(self, pacing):
        # The send loop must go through available_bytes: background
        # flows use SteadyAppSource, which has no replay schedule arrays.
        from repro.netsim.background import SteadyAppSource

        class Counting(SteadyAppSource):
            asked = 0

            def available_bytes(self, now):
                Counting.asked += 1
                return super().available_bytes(now)

        sim = Simulator()
        link = Link(sim, "l", 100e6, 0.005)
        receiver = TcpReceiver(sim, "f", FlowCapture())
        reverse = DirectPath(sim, 0.005, None)
        source = Counting(1e6, start_at=0.0)
        sender = TcpSender(
            sim, "f", Path([link], receiver), receiver, reverse,
            pacing=pacing, stop_at=2.0, app_source=source,
        )
        reverse.sink = sender
        sim.run(until=3.0)
        assert Counting.asked > sender.packets_sent > 0
        assert receiver.rcv_nxt <= source.available_bytes(2.0) + 2 * MSS
