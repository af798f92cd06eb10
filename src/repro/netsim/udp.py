"""UDP trace replay.

The WeHe UDP applications (Skype, WhatsApp, MS Teams, Zoom, Webex) are
replayed packet-for-packet: the sender follows a schedule of
``(time, size)`` entries.  WeHeY's modification (Section 3.4) replaces
the original transmission times with a Poisson process of the same
average rate so that, by PASTA, the measured loss rate is an unbiased
estimate of the bottleneck's loss rate; that transformation lives in
:mod:`repro.wehe.traces` -- here we just replay whatever schedule we are
given.

Loss is measured at the *client* (Section 3.4): the receiver knows the
sender's sequence numbers, so gaps are losses, registered at the time
the surrounding packets arrive.
"""

from heapq import heappush as _heappush

from repro.netsim.packet import DATA, HEADER_BYTES, Packet

UDP_HEADER_BYTES = 28


class UdpReceiver:
    """Receives trace packets; infers loss from sequence gaps."""

    def __init__(self, sim, flow_id, capture=None):
        self.sim = sim
        self.flow_id = flow_id
        self.capture = capture
        self.received_seqs = set()
        self.arrivals = []  # (time, seq, payload_bytes)
        self.bytes_received = 0
        self.ecn_marks = 0

    def receive(self, packet):
        if packet.kind != DATA:
            return
        payload = packet.size - UDP_HEADER_BYTES
        self.received_seqs.add(packet.seq)
        self.arrivals.append((self.sim._now, packet.seq, payload))
        self.bytes_received += payload
        if packet.ecn:
            self.ecn_marks += 1
        if self.capture is not None:
            self.capture.on_arrival(self.sim._now, payload, marked=packet.ecn != 0)

    def loss_events(self, schedule, base_delay):
        """Reconstruct client-side loss events.

        ``schedule`` is the sender's list of ``(time, size)``; a packet
        absent from ``received_seqs`` is a loss, registered at the time
        it *would* have arrived (send time + path delay) -- this is how
        the client-side loss log of Section 3.4 looks.
        """
        events = []
        for seq, (t, _size) in enumerate(schedule):
            if seq not in self.received_seqs:
                events.append((t + base_delay, seq))
        return events


class UdpSender:
    """Replays a ``(time, size)`` schedule of UDP datagrams.

    The schedule is streamed into the event heap: the sender reserves
    one tie-break number per datagram at construction and pushes each
    datagram when the one before it fires, so the heap holds one entry
    per sender and events pop in the order the whole schedule pushed up
    front would give (see :mod:`repro.netsim.engine`).  That needs a
    time-sorted schedule whose first datagram is not in the past.
    """

    def __init__(self, sim, flow_id, path, schedule, dscp=0, start_at=0.0):
        self.sim = sim
        self.flow_id = flow_id
        self.path = path
        self.schedule = list(schedule)
        self.dscp = dscp
        self.start_at = start_at
        self.packets_sent = 0
        self.send_times = []
        times = [t for t, _ in self.schedule]
        if any(later < earlier for earlier, later in zip(times, times[1:])):
            raise ValueError("UDP schedule must be sorted by time")
        if times and start_at + times[0] < sim._now:
            raise ValueError(
                f"cannot schedule at {start_at + times[0]}; "
                f"current time is {sim._now}"
            )
        self._first_seq = sim.reserve(len(times))
        if times:
            self._push(0)

    def _push(self, seq):
        t, size = self.schedule[seq]
        _heappush(
            self.sim._heap,
            (self.start_at + t, self._first_seq + seq, None, self._transmit,
             (seq, size)),
        )

    def _transmit(self, seq, size):
        if seq + 1 < len(self.schedule):
            self._push(seq + 1)
        now = self.sim._now
        packet = Packet(
            self.flow_id, DATA, seq, size + UDP_HEADER_BYTES, self.dscp, now
        )
        self.packets_sent += 1
        self.send_times.append(now)
        self.path.inject(packet)


__all__ = ["UdpSender", "UdpReceiver", "UDP_HEADER_BYTES", "HEADER_BYTES"]
