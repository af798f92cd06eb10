"""BBR model-internals tests."""

import hashlib

import numpy as np
import pytest

from repro.netsim.bbr import PROBE_GAINS, STARTUP_GAIN, BbrSender
from repro.netsim.capture import FlowCapture
from repro.netsim.engine import Simulator
from repro.netsim.link import Link
from repro.netsim.path import DirectPath, Path
from repro.netsim.tcp import TcpReceiver
from repro.netsim.token_bucket import TokenBucketFilter


def run_bbr(bandwidth=20e6, stop_at=10.0):
    sim = Simulator()
    link = Link(sim, "l", bandwidth, 0.01)
    capture = FlowCapture()
    receiver = TcpReceiver(sim, "f", capture)
    path = Path([link], receiver)
    reverse = DirectPath(sim, 0.01, None)
    sender = BbrSender(sim, "f", path, receiver, reverse, stop_at=stop_at)
    reverse.sink = sender
    sim.run(until=stop_at + 1)
    return sender, capture


class TestBbrModel:
    def test_probe_gain_cycle_shape(self):
        assert len(PROBE_GAINS) == 8
        assert PROBE_GAINS[0] == 1.25
        assert PROBE_GAINS[1] == 0.75
        assert all(g == 1.0 for g in PROBE_GAINS[2:])
        assert STARTUP_GAIN == pytest.approx(2.89)

    def test_clean_link_estimate_tracks_bandwidth(self):
        sender, capture = run_bbr(bandwidth=20e6)
        # The windowed-max estimate should land near the link rate.
        assert sender._btl_bw * 8.0 == pytest.approx(20e6, rel=0.5)
        assert capture.mean_throughput() > 0.6 * 20e6

    def test_startup_exits_on_plateau(self):
        sender, _ = run_bbr()
        assert sender._phase in ("drain", "probe")

    def test_no_loss_on_clean_link(self):
        sender, _ = run_bbr()
        assert sender.retransmission_rate < 0.02

    def test_model_window_is_bdp_scaled(self):
        sender, _ = run_bbr(bandwidth=20e6)
        bdp_packets = 20e6 / 8.0 * 0.02 / 1448
        assert sender.cwnd == pytest.approx(2 * bdp_packets, rel=0.8)


#: SHA-256 of a policed BBR flow's send times and retransmission log.
#: The simulation draws no random numbers, so it holds on every numpy.
POLICED_BBR_DIGEST = "9e9cb39a8b7fbe1a62a23d8e1503c1cdc44562c4461658243edc44fb8d6e27b3"


class TestBbrSendTimesGolden:
    def test_policed_flow_sends_at_the_pinned_times(self):
        # BbrSender paces by its own _pacing_interval; a TcpSender send
        # loop that computed the base interval inline would move these
        # times while every other BBR test still passed.
        sim = Simulator()
        link = Link(sim, "l", 20e6, 0.01, TokenBucketFilter(8e6, 20_000, 30_000))
        receiver = TcpReceiver(sim, "f", FlowCapture())
        reverse = DirectPath(sim, 0.01, None)
        sender = BbrSender(
            sim, "f", Path([link], receiver), receiver, reverse, stop_at=5.0
        )
        reverse.sink = sender
        sim.run(until=6.0)
        assert (len(sender.send_times), len(sender.retx_log)) == (3327, 971)
        sha = hashlib.sha256(np.asarray(sender.send_times, dtype=np.float64).tobytes())
        sha.update(repr(sender.retx_log).encode())
        assert sha.hexdigest() == POLICED_BBR_DIGEST
