"""Token-bucket rate limiter (Appendix C.1 of the paper).

The paper's differentiation device has three components:

1. a *classifier* that sends ``dscp == 1`` traffic (original WeHe traces
   plus a share of same-service background traffic) to a token-bucket
   filter and everything else to a plain FIFO;
2. two queues -- the FIFO and the TBF queue;
3. a *forwarding scheduler* that serves the two queues round-robin.

The TBF is configured following tc-tbf / Juniper guidelines: ``rate`` is
the throttling rate, ``burst`` is the bucket size (the paper always uses
``rate x RTT``), and ``limit`` is the TBF queue size, which controls
whether the device behaves as a policer (small limit, drops) or a shaper
(large limit, delays).
"""

from repro.netsim.qdisc import Qdisc, register, standard_sizing
from repro.netsim.queues import DropTailQueue
from repro.obs import metrics as _obs


class DualClassQdisc(Qdisc):
    """Classifier + FIFO + TBF + round-robin scheduler (Appendix C.1).

    ``classifier`` maps a packet to True when it belongs to the
    throttled class (the paper uses the DSCP field; the default
    classifier does exactly that).
    """

    __slots__ = ("tbf", "fifo", "classifier", "_serve_tbf_next")

    def __init__(self, tbf, fifo=None, classifier=None):
        self.tbf = tbf
        self.fifo = fifo if fifo is not None else DropTailQueue(500_000)
        self.classifier = classifier if classifier is not None else _dscp_classifier
        self._serve_tbf_next = False

    def __len__(self):
        return len(self.fifo) + len(self.tbf)

    @property
    def stateful_empty_poll(self):
        return getattr(self.fifo, "stateful_empty_poll", True) or getattr(
            self.tbf, "stateful_empty_poll", True
        )

    @property
    def drops(self):
        return self.fifo.drops + self.tbf.drops

    @property
    def drops_bytes(self):
        return self.fifo.drops_bytes + self.tbf.drops_bytes

    @property
    def backlog_bytes(self):
        return self.fifo.backlog_bytes + self.tbf.backlog_bytes

    def enqueue(self, packet, now):
        if self.classifier(packet):
            return self.tbf.enqueue(packet, now)
        return self.fifo.enqueue(packet, now)

    def dequeue(self, now):
        # Round-robin between the two classes; when the preferred class
        # cannot supply a packet, fall through to the other.
        first, second = (
            (self.tbf, self.fifo) if self._serve_tbf_next else (self.fifo, self.tbf)
        )
        packet, wake = first.dequeue(now)
        if packet is not None:
            self._serve_tbf_next = first is self.fifo
            return packet, None
        packet2, wake2 = second.dequeue(now)
        if packet2 is not None:
            self._serve_tbf_next = second is self.fifo
            return packet2, None
        # Neither class is ready: report the earliest wake-up, if any.
        if wake is None or (wake2 is not None and wake2 < wake):
            return None, wake2
        return None, wake


def _dscp_classifier(packet):
    return packet.dscp == 1


class TokenBucketFilter(Qdisc):
    """A token bucket gating a drop-tail queue.

    Tokens (in bytes) accrue continuously at ``rate_bps / 8`` per second
    up to ``burst_bytes``.  A queued packet may be forwarded only when
    the bucket holds at least its size in tokens.  Arrivals that find the
    queue full are dropped -- with a small ``limit_bytes`` this is
    exactly a policer.

    ``DEVICE`` and ``FIFO`` name the classes
    :func:`~repro.netsim.qdisc.build_device` wraps this shaper in; fluid
    twins (:mod:`repro.netsim.fluid`) override them, so one device
    builder serves both fidelities.
    """

    __slots__ = ("rate_bps", "burst_bytes", "_queue", "_tokens", "_last_update")

    DEVICE = DualClassQdisc
    FIFO = DropTailQueue

    def __init__(self, rate_bps, burst_bytes, limit_bytes):
        if rate_bps <= 0:
            raise ValueError("TBF rate must be positive")
        if burst_bytes <= 0:
            raise ValueError("TBF burst must be positive")
        self.rate_bps = rate_bps
        self.burst_bytes = burst_bytes
        self._queue = DropTailQueue(max(limit_bytes, 1))
        self._tokens = float(burst_bytes)
        self._last_update = 0.0

    def __len__(self):
        return len(self._queue)

    @property
    def drops(self):
        return self._queue.drops

    @property
    def drops_bytes(self):
        return self._queue.drops_bytes

    @property
    def enqueued(self):
        return self._queue.enqueued

    @property
    def mean_delay(self):
        return self._queue.mean_delay

    @property
    def backlog_bytes(self):
        return self._queue.backlog_bytes

    def tokens(self, now):
        """Tokens available at time ``now`` (bytes)."""
        self._replenish(now)
        return self._tokens

    def _replenish(self, now):
        if now > self._last_update:
            self._tokens = min(
                self.burst_bytes,
                self._tokens + (now - self._last_update) * self.rate_bps / 8.0,
            )
            self._last_update = now

    def enqueue(self, packet, now):
        accepted = self._queue.enqueue(packet, now)
        if not accepted and _obs.ENABLED:
            # The policer verdict: counts only TBF-queue overflows (the
            # generic netsim.queue.drops counter also ticks, inside the
            # inner drop-tail queue).
            _obs.SINK.inc("netsim.tbf.drops")
        return accepted

    def dequeue(self, now):
        queue = self._queue
        head = queue.peek()
        if head is None:
            return None, None
        tokens = self._tokens
        if now > self._last_update:
            tokens = min(
                self.burst_bytes,
                tokens + (now - self._last_update) * self.rate_bps / 8.0,
            )
            self._last_update = now
        # The 1e-9 tolerance absorbs float rounding so a wake-up scheduled
        # for "exactly enough tokens" cannot livelock the link.
        size = head.size
        if tokens + 1e-9 >= size:
            self._tokens = tokens - size if tokens > size else 0.0
            return queue.dequeue(now)
        self._tokens = tokens
        if _obs.ENABLED:
            # Deferrals fire only while the bucket is actively
            # throttling; token debt is how many bytes short the bucket
            # is of releasing the head-of-line packet.
            _obs.SINK.inc("netsim.tbf.deferrals")
            _obs.SINK.observe("netsim.tbf.token_debt_bytes", size - tokens)
            _obs.SINK.observe("netsim.tbf.occupancy_at_deferral_bytes", queue.backlog_bytes)
        wake = now + (size - tokens) * 8.0 / self.rate_bps + 1e-9
        return None, wake


register(
    "tbf",
    packet=TokenBucketFilter,
    sizing=standard_sizing,
    doc="single-rate token-bucket policer/shaper (Appendix C.1 device)",
)
