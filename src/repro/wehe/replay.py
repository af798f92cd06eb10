"""Replay endpoints: running a trace between a server and the client.

``attach_replay`` wires a trace onto a forward path of a
:class:`~repro.netsim.topology.FigureOneTopology`:

- TCP traces become a bulk :class:`~repro.netsim.tcp.TcpSender` with
  pacing enabled (Section 3.4: congestion control and pacing dictate
  transmission times) running for the replay duration;
- UDP traces become a :class:`~repro.netsim.udp.UdpSender` following
  the (possibly Poisson-modified) schedule.

The returned :class:`ReplayHandle` exposes the client-side throughput
capture and, after the simulation ran, the
:class:`~repro.netsim.capture.PathMeasurements` the detection
algorithms consume -- built from server-side retransmissions for TCP
and client-side sequence gaps for UDP, exactly as in Section 3.4.
"""

from array import array
from bisect import bisect_right

import numpy as np

from repro.netsim.capture import FlowCapture, PathMeasurements
from repro.netsim.tcp import TcpReceiver, TcpSender
from repro.netsim.udp import UdpReceiver, UdpSender
from repro.wehe.loss_measurement import RetransmissionLossEstimator
from repro.wehe.traces import MIN_REPLAY_DURATION, derived_trace, extend_to_duration


def _schedule_arrays(schedule):
    """A schedule's packet times (float64) and cumulative payload bytes."""
    times = np.asarray([t for t, _ in schedule], dtype=float)
    sizes = np.asarray([s for _, s in schedule], dtype=float)
    return times, array("d", np.cumsum(sizes).tobytes())


class TraceAppSource:
    """Application-limits a TCP replay to the trace's byte schedule.

    The WeHe server writes the trace's payload on the trace's own
    timeline; TCP may fall behind (backlog) but can never run ahead of
    what the application has produced.  This is what keeps replay
    slow-start overshoot bounded by the first chunk rather than by the
    congestion window alone.
    """

    __slots__ = ("_times", "_cumulative")

    def __init__(self, trace, start_at=0.0):
        times, cumulative = _schedule_arrays(trace.schedule)
        self._share(array("d", (times + start_at).tobytes()), cumulative)

    def _share(self, times, cumulative):
        # The sender asks once per send attempt, so lookups must not
        # pay for numpy scalars: the same float64 values live in compact
        # arrays (a list of floats would cost ~4x the memory) searched
        # with bisect.  Sources may share them; nothing writes to them.
        self._times = times
        self._cumulative = cumulative

    def available_bytes(self, now):
        """Payload bytes the application has written by time ``now``."""
        index = bisect_right(self._times, now)
        if index == 0:
            return 0.0
        return self._cumulative[index - 1]

    def next_release_after(self, now):
        """Next time the application writes more data, or None."""
        index = bisect_right(self._times, now)
        if index >= len(self._times):
            return None
        return self._times[index]


class TcpReplaySchedule:
    """A TCP trace's schedule at a replay's length, and its app-source arrays.

    A verdict's TCP replays all replay one schedule -- the bit-inverted
    trace shares the original's -- from three start times (four with
    the sanity-check server), so a replay service derives this once per
    verdict instead of once per replay: the extension (a 58 s netflix
    trace doubles to ~52k packets), the cumulative payload array, and
    one release-time array per start time.  ``attach_replay`` takes it
    as ``tcp_schedule``.  Every value equals what :func:`attach_replay`
    derives without it.
    """

    __slots__ = ("source", "duration", "schedule", "_offsets", "_cumulative", "_times")

    def __init__(self, trace, duration):
        #: The schedule this one extends; matched by identity.
        self.source = trace.schedule
        self.duration = duration
        if trace.duration < duration:
            trace = extend_to_duration(trace, duration)
        self.schedule = trace.schedule
        self._offsets, self._cumulative = _schedule_arrays(self.schedule)
        self._times = {}  # start time -> release times

    def replays(self, trace, duration):
        """True when this is ``trace``'s schedule at ``duration`` seconds."""
        return trace.schedule is self.source and duration == self.duration

    def trace(self, trace):
        """``trace`` (its app, protocol and SNI) over the extended schedule."""
        if trace.schedule is self.schedule:
            return trace
        return derived_trace(trace, self.schedule, trace.sni)

    def app_source(self, start_at):
        """A :class:`TraceAppSource` for a replay starting at ``start_at``."""
        times = self._times.get(start_at)
        if times is None:
            times = array("d", (self._offsets + start_at).tobytes())
            self._times[start_at] = times
        source = TraceAppSource.__new__(TraceAppSource)
        source._share(times, self._cumulative)
        return source


class AckJitter:
    """Reverse-path ACK delay jitter, uniform on [0, 3 ms).

    Reverse-path delay jitter (a couple of ms, as on any real WAN)
    keeps deterministically paced flows from phase-locking against each
    other at a shared queue -- a simulator artifact that does not exist
    in the paper's testbed.

    Values are drawn from ``rng`` in blocks, which yields the same
    numbers as one scalar ``rng.uniform`` per ACK without a numpy call
    per ACK.  Every replay of one environment must share one instance,
    so the draws keep their ACK order across replays, and nothing else
    may draw from ``rng``: a block runs ahead of the ACKs.
    """

    __slots__ = ("_rng", "_block")

    HIGH_S = 0.003
    BLOCK = 4096

    def __init__(self, rng):
        self._rng = rng
        self._block = []

    def draw(self):
        """The next jitter value in seconds."""
        block = self._block
        if not block:
            block = self._rng.uniform(0.0, self.HIGH_S, size=self.BLOCK).tolist()
            block.reverse()  # pop() from the end yields draw order
            self._block = block
        return block.pop()


class ReplayHandle:
    """A live replay: sender + receiver + measurement taps for one path."""

    def __init__(self, trace, sender, receiver, capture, path, rtt, protocol, start_at):
        self.trace = trace
        self.sender = sender
        self.receiver = receiver
        self.capture = capture
        self.path = path
        self.rtt = rtt
        self.protocol = protocol
        self.start_at = start_at

    def throughput_samples(self, n_intervals=100):
        """Client-side per-interval throughput (the WeHe measurement)."""
        return self.capture.throughput_samples(n_intervals=n_intervals)

    def mean_throughput(self):
        return self.capture.mean_throughput()

    def path_measurements(self, loss_estimator=None):
        """Loss/transmission logs for the detection algorithms.

        TCP: server-side retransmission log (noisy by construction);
        UDP: client-side sequence gaps registered at expected arrival.
        """
        if self.protocol == "tcp":
            estimator = loss_estimator or RetransmissionLossEstimator()
            loss_times = estimator.loss_times(self.sender)
            send_times = list(self.sender.send_times)
            # Algorithm 1 scales its interval sweep by the path's
            # *minimum* RTT (line 2); use the measured one.
            rtt = self.sender.min_rtt or self.rtt
        else:
            base_delay = self.path.propagation_delay
            schedule = [
                (self.start_at + t, size) for t, size in self.sender.schedule
            ]
            loss_times = [t for t, _seq in self.receiver.loss_events(schedule, base_delay)]
            send_times = list(self.sender.send_times)
            rtt = self.rtt
        return PathMeasurements(send_times, loss_times, rtt)

    def retransmission_rate(self):
        """Server-side retx rate (TCP) or client-observed loss rate (UDP)."""
        if self.protocol == "tcp":
            return self.sender.retransmission_rate
        sent = self.sender.packets_sent
        if sent == 0:
            return 0.0
        return 1.0 - len(self.receiver.received_seqs) / sent

    def queuing_delay(self):
        """Mean RTT minus min RTT (TCP only; UDP returns 0)."""
        if self.protocol == "tcp":
            return self.sender.mean_queuing_delay()
        return 0.0


def attach_replay(
    sim,
    topology,
    which,
    trace,
    start_at=0.0,
    duration=None,
    dscp=None,
    flow_id=None,
    ack_jitter=None,
    tcp_schedule=None,
):
    """Wire a replay of ``trace`` from server ``which`` onto the topology.

    ``dscp`` defaults to 1 for original traces (a DPI differentiator
    matches the intact SNI) and 0 for bit-inverted ones -- the netsim
    encoding of the paper's content-triggered classification.
    ``duration`` defaults to the extended-trace duration (>= 45 s).
    ``ack_jitter`` is the environment's :class:`AckJitter` (None: TCP
    ACKs return after the bare reverse-path delay).  ``tcp_schedule``
    is a :class:`TcpReplaySchedule` of a TCP ``trace`` at ``duration``
    shared with the verdict's other replays (None: derive one).
    """
    if dscp is None:
        dscp = 1 if trace.is_original else 0
    if flow_id is None:
        suffix = "orig" if trace.is_original else "inv"
        flow_id = f"replay-{trace.app}-{which}-{suffix}"
    capture = FlowCapture()
    rtt = topology.rtt(which)

    if trace.protocol == "tcp":
        if duration is None:
            duration = max(trace.duration, MIN_REPLAY_DURATION)
        if tcp_schedule is None:
            tcp_schedule = TcpReplaySchedule(trace, duration)
        elif not tcp_schedule.replays(trace, duration):
            raise ValueError("tcp_schedule is not this trace's at this duration")
        receiver = TcpReceiver(sim, flow_id, capture)
        path = topology.forward_path(which, receiver)
        jitter = None if ack_jitter is None else ack_jitter.draw
        reverse = topology.reverse_path(which, None, jitter=jitter)
        sender = TcpSender(
            sim,
            flow_id,
            path,
            receiver,
            reverse,
            dscp=dscp,
            pacing=True,
            start_at=start_at,
            stop_at=start_at + duration,
            app_source=tcp_schedule.app_source(start_at),
        )
        reverse.sink = sender
        trace = tcp_schedule.trace(trace)
    else:
        replay_trace = extend_to_duration(trace)
        if duration is not None:
            replay_trace = _truncate(replay_trace, duration)
        receiver = UdpReceiver(sim, flow_id, capture)
        path = topology.forward_path(which, receiver)
        sender = UdpSender(
            sim, flow_id, path, replay_trace.schedule, dscp=dscp, start_at=start_at
        )
        trace = replay_trace

    return ReplayHandle(
        trace, sender, receiver, capture, path, rtt, trace.protocol, start_at
    )


def _truncate(trace, duration):
    if trace.schedule[-1][0] <= duration:
        return trace
    schedule = tuple((t, s) for t, s in trace.schedule if t <= duration)
    if not schedule:
        schedule = (trace.schedule[0],)
    return derived_trace(trace, schedule, trace.sni)
