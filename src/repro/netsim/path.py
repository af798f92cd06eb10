"""Paths: ordered sequences of links ending at a receiver.

Routing in the experiments is static -- every flow knows its path up
front (the paper's Figure-1 topologies are fixed for the duration of a
test).  A packet carries its path and current hop; when a link has
sent it, the link schedules its arrival at ``links[hop + 1]`` or, past
the last link, at ``sink`` if the path has one
(:meth:`repro.netsim.link.Link._transmit_done`).
"""


class Path:
    """An ordered list of :class:`~repro.netsim.link.Link` plus a sink.

    ``sink`` is any object with a ``receive(packet)`` method (a TCP or
    UDP receiver, or a measurement tap), or None for traffic nobody
    receives (packet background): its packets leave the simulation
    when the last link has sent them.
    """

    __slots__ = ("links", "sink")

    def __init__(self, links, sink):
        if not links:
            raise ValueError("a path needs at least one link")
        self.links = tuple(links)
        self.sink = sink

    def __len__(self):
        return len(self.links)

    def inject(self, packet):
        """Start a packet down this path (called by the sender)."""
        packet.path = self
        packet.hop = 0
        self.links[0].send(packet)

    @property
    def propagation_delay(self):
        """Sum of per-link propagation delays (no queueing)."""
        return sum(link.delay_s for link in self.links)


class DirectPath:
    """A queue-less path used for reverse (ACK) traffic.

    The paper's measurements are all about the forward direction; ACKs
    return over an uncongested reverse path.  ``DirectPath`` models that
    as a pure delay, which keeps the event count manageable without
    changing forward-path dynamics.
    """

    __slots__ = ("sim", "delay_s", "sink", "jitter")

    def __init__(self, sim, delay_s, sink, jitter=None):
        self.sim = sim
        self.delay_s = delay_s
        self.sink = sink
        self.jitter = jitter  # callable -> extra delay, or None

    def inject(self, packet):
        delay = self.delay_s
        if self.jitter is not None:
            delay += max(0.0, self.jitter())
        self.sim.schedule(delay, self.sink.receive, packet)
