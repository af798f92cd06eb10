"""Point-to-point links.

A link serializes packets at ``bandwidth_bps``, holds them in its
queueing discipline while busy, and delivers them ``delay_s`` after
their serialization ends to whatever the packet's path says comes next:
the next link's ``send``, or the path's sink past the last link (a path
with no sink drops the packet there, without an event).  A link with a
:class:`~repro.netsim.token_bucket.DualClassQdisc` *is* the paper's
rate-limiting device.

Both times of a transmission are known when it starts, so the link
hands the packet on then: it pushes the arrival at the next hop (or
sink) at ``(start + size*8/bw) + delay_s``.  The transmit-done event,
which only polls the qdisc for the next packet, is pushed only when
that poll can matter -- a packet waits behind the transmission, or the
qdisc's empty poll changes its state (``Qdisc.stateful_empty_poll``).
Its tie-break number is reserved when the transmission starts, so a
done pushed later pops exactly where an eager one would have.
"""

from heapq import heappush as _heappush

from repro.netsim.queues import DropTailQueue


class Link:
    """A unidirectional link with bandwidth, propagation delay and a qdisc.

    The link is busy while ``now < busy_until`` (the end of the current
    serialization), and at ``now == busy_until`` until its pushed done,
    if any, has run.
    """

    __slots__ = (
        "sim",
        "name",
        "bandwidth_bps",
        "delay_s",
        "qdisc",
        "_busy_until",
        "_done_seq",
        "_done_pushed",
        "_eager_done",
        "_backlog",
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
        self._busy_until = -1.0
        # The running transmission's reserved done number, while its
        # done is not on the heap; _done_pushed while it is.
        self._done_seq = -1
        self._done_pushed = False
        # A qdisc outside the Qdisc hierarchy may poll statefully.
        self._eager_done = getattr(self.qdisc, "stateful_empty_poll", True)
        # Packets accepted minus packets dequeued: cheaper than
        # len(qdisc), and exact unless the qdisc drops at dequeue
        # (CoDel), where it only overcounts and the done is eager anyway.
        self._backlog = 0
        self._wake_handle = None
        # Statistics, counted when a serialization starts.
        # repro.obs.harvest duck-types against these names (and
        # utilization()) to build the per-run link metrics without
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
        sim = self.sim
        # A drop is silent, as on a real device; the transport
        # discovers it through missing ACKs or sequence gaps.
        if not self.qdisc.enqueue(packet, sim._now):
            return
        self._backlog += 1
        if self._done_pushed:
            return
        if sim._now < self._busy_until:
            # The packet waits: the running transmission's done must
            # pick it up, under the number reserved at its start.
            self._done_pushed = True
            _heappush(
                sim._heap,
                (self._busy_until, self._done_seq, None, self._try_transmit, ()),
            )
            return
        self._try_transmit()

    def _try_transmit(self):
        """Start the next packet, if the qdisc has one ready.

        The caller has checked the link is idle.  This is also the
        transmit-done event: the link is idle once it runs.
        """
        self._done_pushed = False
        sim = self.sim
        now = sim._now
        packet, wake = self.qdisc.dequeue(now)
        if packet is None:
            if wake is not None:
                self._schedule_wake(wake)
            return
        self._backlog -= 1
        size = packet.size
        self.bytes_sent += size
        self.packets_sent += 1
        done = now + size * 8.0 / self.bandwidth_bps
        self._busy_until = done
        # Inlined Simulator.schedule.  The done's tie-break number is
        # taken first, whether or not the done is pushed now, then the
        # arrival's.
        seq = sim._counter
        path = packet.path
        links = path.links
        hop = packet.hop + 1
        packet.hop = hop
        if hop < len(links):
            arrive = links[hop].send
        elif path.sink is not None:
            arrive = path.sink.receive
        else:
            # A path without a sink ends here: nothing would read it.
            arrive = None
        if arrive is None:
            sim._counter = seq + 1
        else:
            sim._counter = seq + 2
            _heappush(sim._heap, (done + self.delay_s, seq + 1, None, arrive, (packet,)))
        if self._eager_done or self._backlog:
            self._done_pushed = True
            _heappush(sim._heap, (done, seq, None, self._try_transmit, ()))
        else:
            self._done_seq = seq

    def _schedule_wake(self, wake):
        # Keep at most one pending wake-up; earlier ones win.
        if self._wake_handle is not None and not self._wake_handle.cancelled:
            return
        self._wake_handle = self.sim.schedule_at_cancellable(
            max(wake, self.sim._now), self._on_wake
        )

    def _on_wake(self):
        self._wake_handle = None
        if not self._done_pushed and self.sim._now >= self._busy_until:
            self._try_transmit()

    def utilization(self, elapsed):
        """Fraction of ``elapsed`` seconds spent transmitting.

        Bytes count when their serialization starts, so a packet still
        on the wire at the end counts whole; the result is capped at 1.
        """
        if elapsed <= 0:
            return 0.0
        return min(1.0, self.bytes_sent * 8.0 / self.bandwidth_bps / elapsed)
