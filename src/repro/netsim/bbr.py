"""A BBR-like sender (the Section-7 open question).

The paper evaluates WeHeY on TCP Cubic and leaves BBR open: "On the
one hand, BBR uses pacing like our approach.  On the other hand, BBR
adjusts its sending rate such that loss should occur only during the
probe-bandwidth phase."  ``BbrSender`` is a compact model of BBRv1's
behaviour sufficient to study that question in the harness:

- model-based rates: pacing at ``gain x btl_bw`` with a windowed-max
  bottleneck-bandwidth estimate and a windowed-min RTT estimate;
- phases: STARTUP (2.89x gain until the bandwidth estimate plateaus),
  DRAIN, then the 8-phase PROBE_BW gain cycle
  (1.25, 0.75, 1, 1, 1, 1, 1, 1);
- loss does *not* collapse the window -- retransmissions still happen
  (so server-side loss measurement works), but the sending rate is
  governed by the model, exactly the property that changes WeHeY's
  loss-pattern landscape.

The ``ablations`` claim (:mod:`repro.claims.ablations`) compares
Algorithm 1's behaviour under Cubic and BBR replays.
"""

from collections import deque

from repro.netsim.tcp import MSS, TcpSender

STARTUP_GAIN = 2.89
DRAIN_GAIN = 1.0 / 2.89
PROBE_GAINS = (1.25, 0.75, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0)
BW_WINDOW_RTTS = 10


class BbrSender(TcpSender):
    """TCP sender with BBR-style model-based rate control."""

    def __init__(self, *args, **kwargs):
        kwargs.setdefault("pacing", True)
        kwargs["cc"] = "cubic"  # base-class bookkeeping only; unused
        super().__init__(*args, **kwargs)
        self._bw_samples = deque()  # (time, bytes/s)
        self._btl_bw = 0.0
        self._delivered = 0
        self._last_sample_time = None
        self._last_sample_delivered = 0
        self._phase = "startup"
        self._probe_index = 0
        self._phase_started = 0.0
        self._full_bw = 0.0
        self._full_bw_count = 0

    # -- rate model ----------------------------------------------------

    def _gain(self):
        if self._phase == "startup":
            return STARTUP_GAIN
        if self._phase == "drain":
            return DRAIN_GAIN
        return PROBE_GAINS[self._probe_index]

    def _pacing_interval(self):
        if self._btl_bw <= 0:
            return super()._pacing_interval()
        rate_bps = self._gain() * self._btl_bw * 8.0
        return (MSS + 52) * 8.0 / max(rate_bps, 1e3)

    def _bdp_packets(self):
        if self._btl_bw <= 0 or self.min_rtt is None:
            return 10.0
        return max(self._btl_bw * self.min_rtt / MSS, 4.0)

    # -- ACK processing hooks -------------------------------------------

    def _on_ack(self, packet):
        before = self.snd_una
        super()._on_ack(packet)
        newly = self.snd_una - before
        if newly > 0:
            self._delivered += newly
            self._sample_bandwidth()
            self._advance_phase()
            # cwnd is the model's: 2 x BDP, never loss-collapsed.
            self.cwnd = 2.0 * self._bdp_packets()

    def _sample_bandwidth(self):
        now = self.sim.now
        rtt = self.srtt or 0.05
        if self._last_sample_time is None:
            self._last_sample_time = now
            self._last_sample_delivered = self._delivered
            return
        elapsed = now - self._last_sample_time
        if elapsed < rtt:
            return
        if elapsed > 3.0 * rtt:
            # The sender idled (app/window-limited); a rate computed
            # across the gap would poison the max filter downward.
            self._last_sample_time = now
            self._last_sample_delivered = self._delivered
            return
        sample = (self._delivered - self._last_sample_delivered) / elapsed
        self._last_sample_time = now
        self._last_sample_delivered = self._delivered
        if self._btl_bw > 0:
            # Post-recovery cumulative-ACK jumps deliver "old" data all
            # at once; cap the sample so they cannot spike the filter.
            sample = min(sample, 3.0 * self._btl_bw)
        self._bw_samples.append((now, sample))
        horizon = now - BW_WINDOW_RTTS * rtt
        while self._bw_samples and self._bw_samples[0][0] < horizon:
            self._bw_samples.popleft()
        window_max = max(s for _, s in self._bw_samples)
        self._max_ever = max(getattr(self, "_max_ever", 0.0), window_max)
        # Loss-recovery stalls can empty the sample window and spiral
        # the model's rate to zero; a floor relative to the historical
        # maximum keeps the model sane (simplification vs. real BBR,
        # which re-probes its way out).
        self._btl_bw = max(window_max, 0.25 * self._max_ever)

    def _advance_phase(self):
        now = self.sim.now
        rtt = self.srtt or 0.05
        if self._phase == "startup":
            # Plateau detection: bandwidth grew <25% for 3 consecutive
            # samples (and only once the estimator has real samples).
            if len(self._bw_samples) < 5:
                return
            if self._btl_bw > self._full_bw * 1.25:
                self._full_bw = self._btl_bw
                self._full_bw_count = 0
            else:
                self._full_bw_count += 1
                if self._full_bw_count >= 3:
                    self._phase = "drain"
                    self._phase_started = now
        elif self._phase == "drain":
            if now - self._phase_started >= rtt:
                self._phase = "probe"
                self._probe_index = 2
                self._phase_started = now
        else:
            if now - self._phase_started >= rtt:
                self._probe_index = (self._probe_index + 1) % len(PROBE_GAINS)
                self._phase_started = now

    # -- loss response ---------------------------------------------------

    def _fast_retransmit(self):
        """Retransmit, but do not collapse the window (BBR ignores loss)."""
        self.in_recovery = True
        self.recover = self.snd_nxt
        self._retransmitted.clear()
        self._queue_retransmit(self.snd_una, "fast")
        self._kick_sending()

    def _on_rto(self):
        # Keep the go-back-N machinery but restore the model window
        # right after; BBR does not crash to cwnd = 1 on loss.
        super()._on_rto()
        self.cwnd = max(2.0 * self._bdp_packets(), 4.0)
