"""Reference model of a link: every transmission pushes its done event.

This is the link as it was before the lazy transmit-done: the done
event of each transmission is pushed when the transmission starts, and
it hands the packet on to its next hop (or sink) and polls the qdisc,
empty or not.  ``test_link_reference.py`` runs random schedules through
it and through :class:`repro.netsim.link.Link` and compares what the
packets see.  It is not used outside the tests.
"""

from repro.netsim.queues import DropTailQueue


class EagerLink:
    """A unidirectional link whose done event is always on the heap."""

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
        self.sim = sim
        self.name = name
        self.bandwidth_bps = bandwidth_bps
        self.delay_s = delay_s
        self.qdisc = qdisc if qdisc is not None else DropTailQueue(500_000)
        set_rate = getattr(self.qdisc, "set_service_rate", None)
        if set_rate is not None:
            set_rate(bandwidth_bps)
        self._busy = False
        self._wake_handle = None
        self.bytes_sent = 0
        self.packets_sent = 0
        self.packets_offered = 0

    @property
    def drops(self):
        return self.qdisc.drops

    def send(self, packet):
        self.packets_offered += 1
        if self.qdisc.enqueue(packet, self.sim._now) and not self._busy:
            self._try_transmit()

    def _try_transmit(self):
        sim = self.sim
        packet, wake = self.qdisc.dequeue(sim._now)
        if packet is None:
            if wake is not None:
                self._schedule_wake(wake)
            return
        self._busy = True
        sim.schedule(packet.size * 8.0 / self.bandwidth_bps, self._transmit_done, packet)

    def _schedule_wake(self, wake):
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
        path = packet.path
        links = path.links
        hop = packet.hop + 1
        packet.hop = hop
        if hop < len(links):
            sim.schedule(self.delay_s, links[hop].send, packet)
        elif path.sink is not None:
            sim.schedule(self.delay_s, path.sink.receive, packet)
        packet, wake = self.qdisc.dequeue(sim._now)
        if packet is None:
            self._busy = False
            if wake is not None:
                self._schedule_wake(wake)
            return
        sim.schedule(packet.size * 8.0 / self.bandwidth_bps, self._transmit_done, packet)
