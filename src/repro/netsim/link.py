"""Point-to-point links.

A link serializes packets at ``bandwidth_bps``, holds them in its
queueing discipline while busy, and delivers them ``delay_s`` later to
whatever the packet's path says comes next: the next link's ``send``,
or the path's sink past the last link (a path with no sink drops the
packet there, without an event).  A link with a
:class:`~repro.netsim.token_bucket.DualClassQdisc` *is* the paper's
rate-limiting device.
"""

from heapq import heappush as _heappush

from repro.netsim.queues import DropTailQueue


class Link:
    """A unidirectional link with bandwidth, propagation delay and a qdisc."""

    __slots__ = (
        "sim",
        "name",
        "bandwidth_bps",
        "delay_s",
        "qdisc",
        "_busy",
        "_wake_handle",
        "bytes_sent",
        "packets_sent",
        "packets_offered",
    )

    def __init__(self, sim, name, bandwidth_bps, delay_s, qdisc=None):
        if bandwidth_bps <= 0:
            raise ValueError("link bandwidth must be positive")
        if delay_s < 0:
            raise ValueError("link delay must be non-negative")
        self.sim = sim
        self.name = name
        self.bandwidth_bps = bandwidth_bps
        self.delay_s = delay_s
        self.qdisc = qdisc if qdisc is not None else DropTailQueue(500_000)
        # Fluid-fidelity qdiscs share the link's serialization capacity
        # with a virtual background aggregate; tell them the rate once.
        set_rate = getattr(self.qdisc, "set_service_rate", None)
        if set_rate is not None:
            set_rate(bandwidth_bps)
        self._busy = False
        self._wake_handle = None
        # Statistics.  repro.obs.harvest duck-types against these names
        # (and utilization()) to build the per-run link metrics without
        # touching this hot path -- renaming them breaks the harvest.
        self.bytes_sent = 0
        self.packets_sent = 0
        self.packets_offered = 0

    @property
    def drops(self):
        return self.qdisc.drops

    def send(self, packet):
        """Offer a packet to this link; it may be queued or dropped."""
        self.packets_offered += 1
        # A busy link picks its next packet when the current one is
        # done.  A drop is silent, as on a real device; the transport
        # discovers it through missing ACKs or sequence gaps.
        if self.qdisc.enqueue(packet, self.sim._now) and not self._busy:
            self._try_transmit()

    def _try_transmit(self):
        """Start the next packet; the caller has checked the link is idle."""
        sim = self.sim
        packet, wake = self.qdisc.dequeue(sim._now)
        if packet is None:
            if wake is not None:
                self._schedule_wake(wake)
            return
        self._busy = True
        # Inlined Simulator.schedule (same ``when`` arithmetic): two
        # events per packet per hop make this the hottest push site.
        seq = sim._counter
        sim._counter = seq + 1
        _heappush(
            sim._heap,
            (sim._now + packet.size * 8.0 / self.bandwidth_bps, seq, None,
             self._transmit_done, (packet,)),
        )

    def _schedule_wake(self, wake):
        # Keep at most one pending wake-up; earlier ones win.
        if self._wake_handle is not None and not self._wake_handle.cancelled:
            return
        self._wake_handle = self.sim.schedule_at_cancellable(
            max(wake, self.sim._now), self._on_wake
        )

    def _on_wake(self):
        self._wake_handle = None
        if not self._busy:
            self._try_transmit()

    def _transmit_done(self, packet):
        self.bytes_sent += packet.size
        self.packets_sent += 1
        sim = self.sim
        # Hand the packet on: after propagation it arrives at the next
        # link on its path, or at the path's sink past the last one.  A
        # path without a sink ends here: nothing would read the arrival.
        path = packet.path
        links = path.links
        hop = packet.hop + 1
        packet.hop = hop
        if hop < len(links):
            arrive = links[hop].send
        elif path.sink is not None:
            arrive = path.sink.receive
        else:
            arrive = None
        if arrive is not None:
            seq = sim._counter
            sim._counter = seq + 1
            _heappush(
                sim._heap, (sim._now + self.delay_s, seq, None, arrive, (packet,))
            )
        # _try_transmit (keep the two in step): the link stays busy if
        # the qdisc hands over the next packet.
        packet, wake = self.qdisc.dequeue(sim._now)
        if packet is None:
            self._busy = False
            if wake is not None:
                self._schedule_wake(wake)
            return
        seq = sim._counter
        sim._counter = seq + 1
        _heappush(
            sim._heap,
            (sim._now + packet.size * 8.0 / self.bandwidth_bps, seq, None,
             self._transmit_done, (packet,)),
        )

    def utilization(self, elapsed):
        """Fraction of ``elapsed`` seconds spent transmitting."""
        if elapsed <= 0:
            return 0.0
        return min(1.0, self.bytes_sent * 8.0 / self.bandwidth_bps / elapsed)
