"""Queueing disciplines.

Every discipline implements the :class:`~repro.netsim.qdisc.Qdisc`
protocol consumed by :class:`~repro.netsim.link.Link`:

- ``enqueue(packet, now) -> bool`` -- False means the packet was dropped.
- ``dequeue(now) -> (packet | None, wake | None)`` -- returns the next
  packet to transmit, or ``(None, t)`` when a packet exists but is not
  yet eligible (the link should retry at time ``t``), or ``(None, None)``
  when the discipline is empty.
- ``__len__`` -- number of queued packets.
- ``stateful_empty_poll`` -- True when ``dequeue`` on an empty
  discipline changes its state; the link then polls at the end of every
  transmission, otherwise only when a packet waits.

Disciplines also keep drop and delay statistics used by the experiment
harness.
"""

from collections import deque

from repro.netsim.qdisc import Qdisc, register
from repro.obs import metrics as _obs


class DropTailQueue(Qdisc):
    """A FIFO with a byte-capacity bound; arrivals that overflow are dropped."""

    __slots__ = (
        "capacity_bytes",
        "_queue",
        "_bytes",
        "drops",
        "drops_bytes",
        "enqueued",
        "delay_sum",
        "delay_samples",
    )

    def __init__(self, capacity_bytes=200_000):
        if capacity_bytes <= 0:
            raise ValueError("queue capacity must be positive")
        self.capacity_bytes = capacity_bytes
        self._queue = deque()
        self._bytes = 0
        self.drops = 0
        self.drops_bytes = 0
        self.enqueued = 0
        self.delay_sum = 0.0
        self.delay_samples = 0

    def __len__(self):
        return len(self._queue)

    @property
    def backlog_bytes(self):
        """Bytes currently queued."""
        return self._bytes

    def enqueue(self, packet, now):
        if self._bytes + packet.size > self.capacity_bytes:
            self.drops += 1
            self.drops_bytes += packet.size
            # Drops are rare relative to packet events, so this is the
            # only queue operation that pays an instrumentation branch.
            if _obs.ENABLED:
                _obs.SINK.inc("netsim.queue.drops")
                _obs.SINK.observe("netsim.queue.occupancy_at_drop_bytes", self._bytes)
            return False
        packet.enqueued_at = now
        self._queue.append(packet)
        self._bytes += packet.size
        self.enqueued += 1
        return True

    def dequeue(self, now):
        if not self._queue:
            return None, None
        packet = self._queue.popleft()
        self._bytes -= packet.size
        self.delay_sum += now - packet.enqueued_at
        self.delay_samples += 1
        return packet, None

    def peek(self):
        """The head-of-line packet, or None."""
        return self._queue[0] if self._queue else None

    @property
    def mean_delay(self):
        """Average queueing delay over everything dequeued so far."""
        if self.delay_samples == 0:
            return 0.0
        return self.delay_sum / self.delay_samples


register(
    "droptail",
    packet=DropTailQueue,
    doc="plain FIFO with byte-capacity tail drop (no rate limiting)",
)
