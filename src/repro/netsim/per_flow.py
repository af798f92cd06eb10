"""Per-flow rate limiting (the Section-7 limitation and its remedy).

WeHeY's common-bottleneck assumption breaks when an ISP throttles each
TCP/UDP flow *individually*: the two replay paths then traverse two
different token buckets and never share a bottleneck.  The paper's
proposed remedy is to modify the replayed trace instances so that they
appear to belong to the same flow -- both paths then land in the same
per-flow policer.

``PerFlowQdisc`` implements the differentiation device: one TBF per
flow key for throttled (dscp=1) traffic, a plain FIFO for the rest,
and round-robin service across all queues.  The flow key defaults to
``packet.flow_id``; WeHeY's flow-merging countermeasure works exactly
because two replays that share a flow id share a bucket.
"""


from repro.netsim.qdisc import Qdisc, register, standard_sizing
from repro.netsim.queues import DropTailQueue
from repro.netsim.token_bucket import TokenBucketFilter


class PerFlowQdisc(Qdisc):
    """Classifier + per-flow TBFs + FIFO + round-robin scheduler.

    Parameters:
        rate_bps / burst_bytes / limit_bytes: configuration applied to
            every per-flow token bucket (created lazily on first
            packet of a flow).
        flow_key: maps a packet to its flow identity (default: the
            packet's ``flow_id``).
        fifo_capacity: byte capacity of the non-throttled FIFO.
        bucket_factory: zero-argument callable building one per-flow
            bucket (default: a :class:`TokenBucketFilter` with this
            qdisc's rate/burst/limit).  This is how the registry
            composes per-flow placement with any class-shaper
            mechanism (see :func:`repro.netsim.qdisc.build_device`).

    ``FIFO`` names the class of the non-throttled queue; the fluid twin
    (:class:`~repro.netsim.fluid.FluidPerFlowQdisc`) swaps in its own.
    """

    __slots__ = (
        "rate_bps",
        "burst_bytes",
        "limit_bytes",
        "flow_key",
        "fifo",
        "bucket_factory",
        "_flows",
        "_rr_order",
        "_rr_index",
    )

    FIFO = DropTailQueue

    def __init__(
        self,
        rate_bps,
        burst_bytes,
        limit_bytes,
        flow_key=None,
        fifo_capacity=500_000,
        bucket_factory=None,
    ):
        if rate_bps <= 0:
            raise ValueError("per-flow rate must be positive")
        self.rate_bps = rate_bps
        self.burst_bytes = burst_bytes
        self.limit_bytes = limit_bytes
        self.flow_key = flow_key if flow_key is not None else _default_flow_key
        self.fifo = self.FIFO(fifo_capacity)
        self.bucket_factory = bucket_factory
        self._flows = {}  # key -> TokenBucketFilter (or bucket_factory product)
        self._rr_order = []  # stable round-robin order over flow keys
        self._rr_index = 0

    def __len__(self):
        return len(self.fifo) + sum(len(tbf) for tbf in self._flows.values())

    @property
    def stateful_empty_poll(self):
        # Buckets are built on first use, so a bucket factory's kind is
        # not known in advance: assume it polls statefully.
        return self.bucket_factory is not None or self.fifo.stateful_empty_poll

    @property
    def drops(self):
        return self.fifo.drops + sum(tbf.drops for tbf in self._flows.values())

    @property
    def drops_bytes(self):
        return self.fifo.drops_bytes + sum(
            tbf.drops_bytes for tbf in self._flows.values()
        )

    @property
    def backlog_bytes(self):
        return self.fifo.backlog_bytes + sum(
            tbf.backlog_bytes for tbf in self._flows.values()
        )

    @property
    def n_flows(self):
        """Number of per-flow buckets instantiated so far."""
        return len(self._flows)

    def _bucket_for(self, key):
        bucket = self._flows.get(key)
        if bucket is None:
            if self.bucket_factory is not None:
                bucket = self.bucket_factory()
            else:
                bucket = TokenBucketFilter(
                    self.rate_bps, self.burst_bytes, self.limit_bytes
                )
            self._flows[key] = bucket
            self._rr_order.append(key)
        return bucket

    def enqueue(self, packet, now):
        if packet.dscp != 1:
            return self.fifo.enqueue(packet, now)
        return self._bucket_for(self.flow_key(packet)).enqueue(packet, now)

    def dequeue(self, now):
        """Round-robin across the FIFO and every flow bucket."""
        queues = [self.fifo] + [self._flows[k] for k in self._rr_order]
        n = len(queues)
        earliest_wake = None
        for offset in range(n):
            queue = queues[(self._rr_index + offset) % n]
            packet, wake = queue.dequeue(now)
            if packet is not None:
                self._rr_index = (self._rr_index + offset + 1) % n
                return packet, None
            if wake is not None and (earliest_wake is None or wake < earliest_wake):
                earliest_wake = wake
        return None, earliest_wake


def _default_flow_key(packet):
    return packet.flow_id


register(
    "perflow",
    packet=PerFlowQdisc,
    sizing=standard_sizing,
    doc="per-flow buckets for dscp=1 traffic (Section-7 limitation device)",
)
