"""TCP sender/receiver model.

A single-direction bulk-transfer TCP with the pieces that matter for the
paper's phenomena:

- congestion control: slow start + Cubic (default) or Reno congestion
  avoidance, with IW10;
- loss recovery: fast retransmit on three duplicate ACKs with a
  NewReno-style recovery phase, and RTO with exponential backoff;
- *pacing* (Section 3.4): packets leave at ``cwnd / srtt`` instead of in
  ACK-clocked bursts, which is one of WeHeY's two trace modifications;
- *retransmission logging*: every retransmission is recorded at the time
  the sender detects it -- this is exactly the noisy, delayed,
  overcounting server-side loss signal that Algorithm 1 is designed to
  tolerate.

The receiver ACKs every segment cumulatively (no delayed ACKs), which
generates duplicate ACKs on gaps just like a real stack.
"""

from itertools import filterfalse

from repro.netsim.packet import ACK, ACK_BYTES, DATA, HEADER_BYTES, Packet
from repro.obs import metrics as _obs

MSS = 1448  # payload bytes per segment
SEGMENT_WIRE_BYTES = MSS + HEADER_BYTES

CUBIC_C = 0.4
CUBIC_BETA = 0.7
RENO_BETA = 0.5
MIN_RTO = 0.2
MAX_RTO = 10.0
INITIAL_CWND = 10.0
MAX_CWND = 2000.0
DUPACK_THRESHOLD = 3


class TcpReceiver:
    """Cumulative-ACK receiver; delivers ACKs over a reverse path."""

    def __init__(self, sim, flow_id, capture=None):
        self.sim = sim
        self.flow_id = flow_id
        self.capture = capture
        self.reverse_path = None  # wired by the sender
        self.rcv_nxt = 0
        self._out_of_order = set()
        self.bytes_received = 0
        self.packets_received = 0

    def receive(self, packet):
        if packet.kind != DATA:
            return
        self.packets_received += 1
        payload = packet.size - HEADER_BYTES
        self.bytes_received += payload
        seq = packet.seq
        rcv_nxt = self.rcv_nxt
        out_of_order = self._out_of_order
        if seq == rcv_nxt:
            rcv_nxt += MSS
            while rcv_nxt in out_of_order:
                out_of_order.discard(rcv_nxt)
                rcv_nxt += MSS
            self.rcv_nxt = rcv_nxt
        elif seq > rcv_nxt:
            out_of_order.add(seq)
        ecn = packet.ecn
        capture = self.capture
        if capture is not None:
            # FlowCapture.on_arrival (keep the two in step), one call
            # less per segment.
            now = self.sim._now
            capture.times.append(now)
            capture.bytes.append(payload)
            if ecn:
                capture.mark_times.append(now)
        # The ACK carries (a reference to) the receiver's out-of-order
        # block set -- the simulation equivalent of SACK blocks; senders
        # must treat it as read-only -- and echoes the congestion mark
        # (simplified ECE, no latched state).  Positional arguments:
        # dscp 0, sent_at, is_retx, sack, ecn.
        self.reverse_path.inject(
            Packet(
                self.flow_id,
                ACK,
                rcv_nxt,
                ACK_BYTES,
                0,
                packet.sent_at,
                packet.is_retx,
                out_of_order if out_of_order else None,
                ecn,
            )
        )


class TcpSender:
    """Bulk TCP sender with Cubic/Reno, pacing, and retransmission logs.

    Parameters:
        sim: the simulator.
        flow_id: flow identifier stamped on packets.
        path: forward :class:`~repro.netsim.path.Path` (must end at the
            matching :class:`TcpReceiver`).
        receiver: the receiver; its ``reverse_path`` is wired here.
        reverse_path: path carrying ACKs back (usually a ``DirectPath``).
        dscp: DSCP marking -- 1 means the flow is subject to throttling.
        cc: ``"cubic"`` or ``"reno"``.
        pacing: when True, spread transmissions at ``cwnd/srtt``.
        total_bytes: stop after this much payload (None = run until
            ``stop()`` or ``stop_at``).
        app_source: optional application-limiting source with
            ``available_bytes(now)`` and ``next_release_after(now)``;
            the sender never runs ahead of what the application has
            written.  WeHe's trace replays are app-limited by the
            recorded trace (the server writes the trace's payload on
            its original schedule), which bounds slow-start overshoot.
    """

    def __init__(
        self,
        sim,
        flow_id,
        path,
        receiver,
        reverse_path,
        dscp=0,
        cc="cubic",
        pacing=True,
        total_bytes=None,
        start_at=0.0,
        stop_at=None,
        app_source=None,
    ):
        if cc not in ("cubic", "reno"):
            raise ValueError(f"unknown congestion control {cc!r}")
        self.sim = sim
        self.flow_id = flow_id
        self.path = path
        self.receiver = receiver
        receiver.reverse_path = reverse_path
        self.dscp = dscp
        self.cc = cc
        self.pacing = pacing
        self.total_bytes = total_bytes
        self.stop_at = stop_at
        self.app_source = app_source
        self._app_wait_handle = None

        # Connection state.
        self.snd_una = 0
        self.snd_nxt = 0
        self.cwnd = INITIAL_CWND
        self.ssthresh = float("inf")
        self.dup_acks = 0
        self.in_recovery = False
        self.recover = -1  # below any seq, so the first loss can recover
        self.srtt = None
        self.rttvar = None
        self.rto = 1.0
        self._rto_backoff = 1
        self._rto_handle = None
        self._pace_handle = None
        self._retx_queue = []  # (seq, reason) pairs awaiting retransmission
        # seq -> time of last retransmission this recovery; a hole may
        # be resent again once ~an RTO has passed (lost retransmissions
        # must not deadlock recovery -- real SACK senders re-mark them).
        self._retransmitted = {}
        self._highest_sent = 0  # highest byte ever transmitted
        self._last_sack = None  # most recent SACK block set from the receiver
        self._stopped = False
        self._last_send_time = -1.0

        # Cubic state.
        self._w_max = INITIAL_CWND
        self._epoch_start = None
        self._cubic_k = 0.0

        # Measurement logs (the server side of the paper's Section 3.4).
        self.send_times = []  # every data transmission, incl. retx
        self.retx_log = []  # (time, seq, reason) at *detection* time
        self.rtt_samples = []  # (time, rtt)
        self.packets_sent = 0
        self.min_rtt = None

        sim.schedule_at(start_at, self._start)
        if stop_at is not None:
            sim.schedule_at(stop_at, self.stop)

    # -- lifecycle ---------------------------------------------------

    def _start(self):
        if self._stopped:
            return
        self._send_loop()

    def stop(self):
        """Stop transmitting; in-flight packets still drain."""
        self._stopped = True
        self._disarm_rto()
        if self._pace_handle is not None:
            self._pace_handle.cancel()
            self._pace_handle = None
        if self._app_wait_handle is not None:
            self._app_wait_handle.cancel()
            self._app_wait_handle = None

    # -- sending -----------------------------------------------------

    def _inflight_packets(self):
        return (self.snd_nxt - self.snd_una) / MSS

    def _wait_for_app(self):
        """Re-enter the send loop when the application writes more data."""
        if self._app_wait_handle is not None and not self._app_wait_handle.cancelled:
            return
        release = self.app_source.next_release_after(self.sim._now)
        if release is None:
            return
        self._app_wait_handle = self.sim.schedule_at_cancellable(
            max(release, self.sim._now + 1e-6), self._on_app_data
        )

    def _on_app_data(self):
        self._app_wait_handle = None
        self._kick_sending()

    def _pacing_interval(self):
        rtt = self.srtt if self.srtt is not None else 0.05
        # max(cwnd, 1.0) / max(rtt, 1e-4) packets/s, without two calls.
        rate = (self.cwnd if self.cwnd >= 1.0 else 1.0) / (rtt if rtt >= 1e-4 else 1e-4)
        return 1.0 / rate

    def _send_loop(self):
        """Send as permitted; with pacing, one packet per timer tick.

        Pacing enforces a true minimum inter-packet gap of
        ``srtt / cwnd`` -- ACK arrivals never trigger immediate
        transmissions, they only (re)arm the pacing timer.  This is the
        Section-3.4 modification that lets replay packets "jump over"
        correlation-inducing loss bursts.

        One frame per tick: the may-send test, the choice of segment
        and its transmission are inlined here, in the order the
        separate steps took them.  ``_pacing_interval`` stays a call,
        since subclasses model their own rate with it.
        """
        if self._stopped:
            return
        self._pace_handle = None
        sim = self.sim
        pacing = self.pacing
        total_bytes = self.total_bytes
        app_source = self.app_source
        gap = None
        while True:
            # May send: a queued retransmission, or a segment the
            # application has written and the window admits.
            retx_queue = self._retx_queue
            if not retx_queue:
                seq = self.snd_nxt
                if total_bytes is not None and seq >= total_bytes:
                    return
                if app_source is not None and seq + MSS > app_source.available_bytes(
                    sim._now
                ):
                    self._wait_for_app()
                    return
                if (seq - self.snd_una) / MSS >= self.cwnd:
                    return
            now = sim._now
            if pacing:
                if gap is not None:
                    # Sent this tick; the next one is a gap away.
                    self._pace_handle = sim.schedule_at_cancellable(
                        now + gap, self._send_loop
                    )
                    return
                gap = self._pacing_interval()
                due = self._last_send_time + gap
                if due > now:
                    self._pace_handle = sim.schedule_at_cancellable(due, self._send_loop)
                    return
            highest = self._highest_sent
            resend = bool(retx_queue)
            if resend:
                seq, reason = retx_queue.pop(0)
            else:
                # After an RTO go-back, snd_nxt re-walks old territory;
                # skip segments the receiver already holds (SACK blocks).
                sack = self._last_sack
                while seq < highest and sack and seq in sack:
                    seq += MSS
                reason = "rto-gb" if seq < highest else None
            is_retx = seq < highest
            packet = Packet(
                self.flow_id, DATA, seq, SEGMENT_WIRE_BYTES, self.dscp, now, is_retx
            )
            if is_retx:
                # Loss events are registered when the retransmission
                # leaves the server -- this is what a capture-based
                # estimator sees.
                self.retx_log.append((now, seq, reason or "retx"))
                if _obs.ENABLED:
                    _obs.SINK.inc("netsim.tcp.retransmits")
                    _obs.SINK.inc(f"netsim.tcp.retransmits.{reason or 'retx'}")
            if seq + MSS > highest:
                self._highest_sent = seq + MSS
            self.send_times.append(now)
            self.packets_sent += 1
            self.path.inject(packet)
            handle = self._rto_handle
            if handle is None or handle.cancelled:
                self._arm_rto()
            if not resend:
                self.snd_nxt = seq + MSS
            self._last_send_time = now

    def _queue_retransmit(self, seq, reason):
        """Queue a retransmission, at most once per re-arm period.

        A segment already retransmitted is eligible again after roughly
        an RTO -- its retransmission may itself have been lost, and
        recovery must not deadlock waiting for a timer-backoff chain.
        """
        last = self._retransmitted.get(seq)
        rearm = max(self.rto, MIN_RTO)
        if last is not None and self.sim._now - last < rearm:
            return False
        self._retransmitted[seq] = self.sim._now
        self._retx_queue.append((seq, reason))
        return True

    def _kick_sending(self):
        if self._stopped:
            return
        if self.pacing:
            if self._pace_handle is None or self._pace_handle.cancelled:
                self._send_loop()
        else:
            self._send_loop()

    # -- RTO ---------------------------------------------------------

    def _arm_rto(self, force=False):
        """Arm the RTO; ``force`` restarts an armed one from now.

        A restart that moves the deadline later only postpones the
        pending handle, so an ACK stream leaves one live heap entry
        per sender instead of one cancelled entry per ACK.  The timer
        fires at exactly the last-armed ``now + min(rto * backoff,
        MAX_RTO)``.
        """
        handle = self._rto_handle
        armed = handle is not None and not handle.cancelled
        if armed and not force:
            return
        sim = self.sim
        deadline = sim._now + min(self.rto * self._rto_backoff, MAX_RTO)
        if armed:
            if deadline >= handle.due:
                handle.postpone(deadline)
                return
            handle.cancel()
        self._rto_handle = sim.schedule_at_cancellable(deadline, self._on_rto)

    def _disarm_rto(self):
        if self._rto_handle is not None:
            self._rto_handle.cancel()
            self._rto_handle = None

    def _on_rto(self):
        self._rto_handle = None
        if self._stopped or self.snd_una >= self.snd_nxt:
            return
        if _obs.ENABLED:
            _obs.SINK.inc("netsim.tcp.rto_events")
        # Loss by timeout: collapse the window and retransmit the head.
        self.ssthresh = max(self.cwnd / 2.0, 2.0)
        self.cwnd = 1.0
        self.dup_acks = 0
        self.in_recovery = False
        self._epoch_start = None
        self._rto_backoff = min(self._rto_backoff * 2, 64)
        self._retransmitted.clear()
        self._retx_queue = []
        # Go-back-N: everything past snd_una is presumed lost; snd_nxt
        # re-walks from the hole, skipping SACKed blocks.  Without this
        # a large lost burst leaves phantom "in flight" data that jams
        # the window and reduces the flow to one segment per RTO.
        self.snd_nxt = self.snd_una
        self._kick_sending()

    # -- receiving ACKs ----------------------------------------------

    def receive(self, packet):
        if packet.kind != ACK:
            return
        self._on_ack(packet)

    def _on_ack(self, packet):
        ack = packet.seq
        snd_una = self.snd_una
        if packet.sack is not None:
            self._last_sack = packet.sack
        elif ack > snd_una:
            # Receiver holds nothing out of order anymore.
            self._last_sack = None
        if ack > snd_una:
            newly_acked = (ack - snd_una) / MSS
            self.snd_una = ack
            self.dup_acks = 0
            self._rto_backoff = 1
            sim = self.sim
            if not packet.is_retx:
                self._rtt_sample(sim._now - packet.sent_at)
            if self.in_recovery:
                if ack >= self.recover:
                    self.in_recovery = False
                    self._retransmitted.clear()
                else:
                    # NewReno partial ACK: the next segment is also
                    # lost (unless SACK-lite already resent it).
                    self._queue_retransmit(self.snd_una, "partial")
            elif packet.ecn and self.snd_una > self.recover:
                # ECN echo: multiplicative backoff, at most once per
                # window (RFC 3168 semantics) -- no retransmission.
                self._ecn_backoff()
            else:
                self._grow_cwnd(newly_acked)
            if ack < self.snd_nxt:
                # _arm_rto(force=True) (keep the two in step), its
                # common case here: the restart postpones the deadline.
                handle = self._rto_handle
                timeout = self.rto * self._rto_backoff
                deadline = sim._now + (timeout if timeout <= MAX_RTO else MAX_RTO)
                if handle is not None and not handle.cancelled and deadline >= handle.due:
                    handle.due = deadline
                else:
                    self._arm_rto(force=True)
            else:
                self._disarm_rto()
            # _kick_sending (keep the two in step).
            if not self._stopped:
                handle = self._pace_handle
                if not self.pacing or handle is None or handle.cancelled:
                    self._send_loop()
        elif ack == self.snd_una and self.snd_una < self.snd_nxt:
            self.dup_acks += 1
            # Early retransmit (RFC 5827): with fewer than 4 segments in
            # flight, three duplicate ACKs can never arrive; lower the
            # threshold so small-window losses are still detected by
            # dupACKs instead of waiting out a full RTO.
            inflight = self._inflight_packets()
            threshold = DUPACK_THRESHOLD
            if inflight < DUPACK_THRESHOLD + 1:
                threshold = max(1, int(inflight) - 1)
            # NewReno "careful" variant (RFC 6582): never start a new
            # fast-retransmit episode for data below the previous
            # episode's recover point -- dupACKs caused by our own
            # duplicate (spurious) retransmissions would otherwise
            # trigger a self-sustaining retransmission storm.
            if (
                self.dup_acks >= threshold
                and not self.in_recovery
                and self.snd_una > self.recover
            ):
                self._fast_retransmit()
            elif self.in_recovery:
                self._sack_fill_hole(packet)
                # Window inflation lets new data trickle out.
                self._kick_sending()

    def _sack_fill_hole(self, packet):
        """SACK-lite: resend the next hole below the receiver's highest
        out-of-order byte without waiting for a partial ACK.

        Linux servers run SACK, which detects every loss of a burst
        within about one RTT; without this the registration times of a
        loss burst smear over many RTTs and Algorithm 1's fine interval
        sizes lose their correlation signal.
        """
        blocks = packet.sack
        if not blocks:
            return
        top = max(blocks)
        rearm = max(self.rto, MIN_RTO)
        now = self.sim._now
        retransmitted = self._retransmitted
        # The holes below ``top`` in order; the SACKed segments between
        # them (~3 in 4 of the walk) are skipped without a Python step.
        for hole in filterfalse(blocks.__contains__, range(self.snd_una, top, MSS)):
            last = retransmitted.get(hole)
            if last is None or now - last >= rearm:
                self._queue_retransmit(hole, "sack")
                return

    def _ecn_backoff(self):
        """Congestion response to an ECN echo: halve, don't retransmit.

        Reuses the fast-retransmit window math but leaves the data
        stream alone -- nothing was lost.  ``recover`` advances so
        further echoes within the same window are ignored.
        """
        self.recover = self.snd_nxt
        beta = CUBIC_BETA if self.cc == "cubic" else RENO_BETA
        self._w_max = self.cwnd
        self.cwnd = max(self.cwnd * beta, 2.0)
        self.ssthresh = self.cwnd
        if self.cc == "cubic":
            self._epoch_start = self.sim._now
            self._cubic_k = ((self._w_max * (1.0 - CUBIC_BETA)) / CUBIC_C) ** (1.0 / 3.0)
        if _obs.ENABLED:
            _obs.SINK.inc("netsim.tcp.ecn_backoffs")

    def _fast_retransmit(self):
        self.in_recovery = True
        self.recover = self.snd_nxt
        beta = CUBIC_BETA if self.cc == "cubic" else RENO_BETA
        self._w_max = self.cwnd
        self.cwnd = max(self.cwnd * beta, 2.0)
        self.ssthresh = self.cwnd
        if self.cc == "cubic":
            self._epoch_start = self.sim._now
            self._cubic_k = ((self._w_max * (1.0 - CUBIC_BETA)) / CUBIC_C) ** (1.0 / 3.0)
        self._retransmitted.clear()
        self._queue_retransmit(self.snd_una, "fast")
        self._kick_sending()

    # -- congestion window -------------------------------------------

    def _grow_cwnd(self, newly_acked):
        if self.cwnd < self.ssthresh:
            self.cwnd = min(self.cwnd + newly_acked, MAX_CWND)
            return
        if self.cc == "reno":
            self.cwnd = min(self.cwnd + newly_acked / self.cwnd, MAX_CWND)
            return
        # Cubic congestion avoidance.
        if self._epoch_start is None:
            self._epoch_start = self.sim._now
            self._w_max = max(self._w_max, self.cwnd)
            self._cubic_k = (
                max(self._w_max - self.cwnd, 0.0) / CUBIC_C
            ) ** (1.0 / 3.0)
        t = self.sim._now - self._epoch_start
        target = CUBIC_C * (t - self._cubic_k) ** 3 + self._w_max
        if target > self.cwnd:
            self.cwnd = min(
                self.cwnd + (target - self.cwnd) / self.cwnd * newly_acked, MAX_CWND
            )
        else:
            # TCP-friendly floor: creep up slowly.
            self.cwnd = min(self.cwnd + 0.01 * newly_acked / self.cwnd, MAX_CWND)

    # -- RTT estimation ----------------------------------------------

    def _rtt_sample(self, rtt):
        if rtt <= 0:
            return
        self.rtt_samples.append((self.sim._now, rtt))
        if self.min_rtt is None or rtt < self.min_rtt:
            self.min_rtt = rtt
        if self.srtt is None:
            self.srtt = rtt
            self.rttvar = rtt / 2.0
        else:
            self.rttvar = 0.75 * self.rttvar + 0.25 * abs(self.srtt - rtt)
            self.srtt = 0.875 * self.srtt + 0.125 * rtt
        self.rto = min(max(self.srtt + 4.0 * self.rttvar, MIN_RTO), MAX_RTO)

    # -- derived statistics ------------------------------------------

    @property
    def retransmission_rate(self):
        """Retransmissions / transmissions -- the paper's retx-rate metric."""
        if self.packets_sent == 0:
            return 0.0
        return len(self.retx_log) / self.packets_sent

    def mean_queuing_delay(self):
        """Average RTT minus minimum RTT (the paper's Appendix C.2 metric)."""
        if not self.rtt_samples or self.min_rtt is None:
            return 0.0
        mean_rtt = sum(r for _, r in self.rtt_samples) / len(self.rtt_samples)
        return max(0.0, mean_rtt - self.min_rtt)
