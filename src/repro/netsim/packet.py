"""Packet model.

Packets are deliberately lean (``__slots__``) because an experiment moves
hundreds of thousands of them.  Sizes are in bytes and include the
link-layer framing the paper's rate limiters operate on.
"""

DATA = 0
ACK = 1

#: Bytes of TCP/IP header carried by every data segment.
HEADER_BYTES = 52
#: Wire size of a pure ACK.
ACK_BYTES = 52


class Packet:
    """A single packet traversing the simulated network.

    Attributes:
        flow_id: identifier of the owning flow.
        kind: ``DATA`` or ``ACK``.
        seq: for TCP data, the first payload byte; for UDP, packet index;
            for ACKs, the cumulative acknowledgement.
        size: wire size in bytes.
        dscp: differentiated-services code point.  The rate limiters of
            Appendix C.1 throttle ``dscp == 1`` and pass ``dscp == 0``.
        ecn: congestion-experienced mark (0 or 1), set by ECN-marking
            shapers; TCP receivers echo it on the ACK so senders back
            off without loss.
        sent_at: time the packet left the sender (for RTT samples).
        is_retx: True when this is a TCP retransmission.
        path: the :class:`~repro.netsim.path.Path` being traversed.
        hop: index on ``path`` of the link the packet is queued at or,
            once a link has started sending it, is on its way to;
            ``len(path.links)`` on its way to the sink.
        enqueued_at: set by queues to measure queueing delay.
    """

    __slots__ = (
        "flow_id",
        "kind",
        "seq",
        "size",
        "dscp",
        "ecn",
        "sent_at",
        "is_retx",
        "sack",
        "path",
        "hop",
        "enqueued_at",
    )

    def __init__(
        self,
        flow_id,
        kind,
        seq,
        size,
        dscp=0,
        sent_at=0.0,
        is_retx=False,
        sack=None,
        ecn=0,
    ):
        self.flow_id = flow_id
        self.kind = kind
        self.seq = seq
        self.size = size
        self.dscp = dscp
        self.ecn = ecn
        self.sent_at = sent_at
        self.is_retx = is_retx
        self.sack = sack  # highest out-of-order byte held by the receiver
        self.path = None
        self.hop = 0
        self.enqueued_at = 0.0

    def __repr__(self):
        kind = "DATA" if self.kind == DATA else "ACK"
        return (
            f"Packet(flow={self.flow_id}, {kind}, seq={self.seq}, "
            f"size={self.size}, dscp={self.dscp})"
        )
