"""ECMP/flowlet multipath link bundles (ROADMAP item 5).

Inside real ISPs the "common link sequence" of the paper's Figure 1 is
frequently not one device but an ECMP bundle: N parallel member links,
with each five-tuple hashed onto one member (and, under flowlet
switching -- LetFlow, NSDI'17 -- re-hashed whenever the flow pauses
longer than the flowlet gap).  That turns WeHeY's common-bottleneck
assumption into a *probabilistic* property: the two simultaneous
replays co-hash onto the same member with probability 1/N, and
otherwise traverse different devices while still appearing to share
"the" common link.

:class:`MultipathLink` models the bundle.  It quacks like a
:class:`~repro.netsim.link.Link` (``send``, ``delay_s``, the statistics
the obs harvest duck-types against) but owns N member links, each with
its own qdisc so the shaper zoo composes per-member.  Routing is a pure
function of ``(seed, five-tuple, flowlet epoch)`` via SHA-256 -- never
Python's salted ``hash()`` -- so member assignment is machine- and
process-independent, a property ``tests/netsim`` pins.

A 1-member bundle is byte-identical to a plain link: ``send`` forwards
synchronously to the hashed member, adding no events and drawing no
randomness, so the degenerate bundle cannot perturb any pre-multipath
record.
"""

import hashlib
import zlib

from repro.netsim.link import Link
from repro.obs import metrics as _obs

#: Ephemeral (IANA dynamic) source-port range used when deriving a
#: default five-tuple for a flow that never registered one.
EPHEMERAL_PORT_LO = 49152
EPHEMERAL_PORT_HI = 65535


def ecmp_hash(key, seed=0, epoch=0):
    """Deterministic ECMP hash of a flow key.

    SHA-256 over the stringified ``(seed, epoch, key)`` tuple, folded
    to 64 bits -- stable across machines, processes and interpreter
    restarts, unlike ``hash()`` (salted per process via
    PYTHONHASHSEED).  CRC-32 is *not* usable here despite being the
    textbook ECMP hash: it is linear over GF(2), so for two fixed flow
    keys ``crc(a) ^ crc(b)`` is a constant independent of the seed
    prefix, and with a power-of-two member count the pair would either
    always co-hash or always split across every seed.  ``epoch`` is
    the flowlet epoch: bumping it re-draws the member, which is exactly
    what a flowlet switch does in hardware.
    """
    token = f"{seed}:{epoch}:{key}".encode("utf-8")
    return int.from_bytes(hashlib.sha256(token).digest()[:8], "big")


def five_tuple(flow_id, sport=None, dport=443, proto="ip", src=None, dst="client"):
    """The (proto, src, sport, dst, dport) tuple hashed by ECMP.

    The simulator's flows have no real addresses; the source address
    defaults to the flow id (each replay/background flow originates at
    its own server) and the destination to the client.  A missing
    source port is *derived* from the flow id via CRC-32, so unports
    flows still hash deterministically -- and re-drawing the port (the
    coordinator's re-hash tactic) changes the tuple, hence the member.
    """
    if sport is None:
        span = EPHEMERAL_PORT_HI - EPHEMERAL_PORT_LO + 1
        sport = EPHEMERAL_PORT_LO + zlib.crc32(f"sport:{flow_id}".encode()) % span
    if src is None:
        src = flow_id
    return (proto, src, int(sport), dst, int(dport))


def five_tuple_key(tup):
    """Canonical string form of a five-tuple (the CRC-32 input)."""
    return ":".join(str(part) for part in tup)


def shaped_member_subset(n_members, n_shaped, seed):
    """Seeded choice of which member links carry the shaper.

    Real bundles are heterogeneous -- a throttling deployment may
    install the limiter on only some members.  The subset is drawn by
    ranking members on SHA-256 draws (the :mod:`repro.faults.chaos`
    machinery's trick, inlined here so netsim does not import faults):
    machine-independent and a pure function of ``(seed, n_members)``.
    """
    if n_shaped >= n_members:
        return tuple(range(n_members))
    def rank(i):
        digest = hashlib.sha256(f"{seed}:shaped:{i}".encode()).digest()
        return int.from_bytes(digest[:8], "big")
    order = sorted(range(n_members), key=rank)
    return tuple(sorted(order[:n_shaped]))


class MultipathLink:
    """An ECMP bundle of N parallel member links.

    Parameters:
        sim: the simulator.
        name: bundle name; members are named ``{name}.m{i}``.
        bandwidth_bps / delay_s: per-member serialization rate and
            propagation delay (a bundle's aggregate capacity is
            ``N * bandwidth_bps``).
        member_qdiscs: one qdisc per member, in member order -- the
            shaper zoo composes per-member, so a bundle can mix shaped
            and plain members.
        seed: ECMP hash seed (a device reboot re-seeds the hash; two
            bundles with different seeds assign flows independently).
        flowlet_gap_s: when set, a flow whose inter-packet gap exceeds
            this re-hashes with a bumped flowlet epoch (LetFlow); None
            disables flowlet switching (classic sticky ECMP).
    """

    def __init__(self, sim, name, bandwidth_bps, delay_s, member_qdiscs,
                 *, seed=0, flowlet_gap_s=None):
        if not member_qdiscs:
            raise ValueError("a multipath link needs at least one member")
        if flowlet_gap_s is not None and flowlet_gap_s <= 0:
            raise ValueError("a multipath link's flowlet gap must be positive")
        self.sim = sim
        self.name = name
        self.bandwidth_bps = bandwidth_bps
        self.delay_s = delay_s
        self.seed = seed
        self.flowlet_gap_s = flowlet_gap_s
        self.members = tuple(
            Link(sim, f"{name}.m{i}", bandwidth_bps, delay_s, qdisc)
            for i, qdisc in enumerate(member_qdiscs)
        )
        self._keys = {}    # flow_id -> five-tuple key string (registered ports)
        self._flows = {}   # flow_id -> [member_index, last_send_time, epoch]
        self.packets_offered = 0
        self.rehashes = 0
        self.flowlet_switches = 0
        #: per-flow flowlet-switch counts (lets callers distinguish a
        #: replay flow's mid-test split from background flows churning).
        self.flow_switches = {}
        #: per-flow assignment timeline: flow_id -> [(time, member)],
        #: one entry per (re)assignment.  Ground-truth consumers (the
        #: multipath benchmark) integrate it into a co-location
        #: fraction; a flow's assignment holds until its next entry.
        self.assignment_history = {}

    # -- statistics the obs harvest duck-types against -----------------

    @property
    def bytes_sent(self):
        return sum(member.bytes_sent for member in self.members)

    @property
    def packets_sent(self):
        return sum(member.packets_sent for member in self.members)

    @property
    def drops(self):
        return sum(member.qdisc.drops for member in self.members)

    def utilization(self, elapsed):
        """Fraction of the bundle's aggregate capacity used."""
        if elapsed <= 0:
            return 0.0
        capacity = self.bandwidth_bps * len(self.members)
        return min(1.0, self.bytes_sent * 8.0 / capacity / elapsed)

    # -- routing --------------------------------------------------------

    def flow_key(self, flow_id):
        """The five-tuple key this bundle hashes for ``flow_id``."""
        key = self._keys.get(flow_id)
        if key is None:
            key = five_tuple_key(five_tuple(flow_id))
            self._keys[flow_id] = key
        return key

    def register_flow(self, flow_id, sport, dport=443, proto="ip"):
        """Pin ``flow_id``'s five-tuple (the client chose its ports).

        The coordinator's re-hash recovery draws fresh ephemeral ports
        and registers them before the replay starts; an already-routed
        flow is re-routed on its next packet (counted as a re-hash if
        the member changed).
        """
        self._keys[flow_id] = five_tuple_key(
            five_tuple(flow_id, sport=sport, dport=dport, proto=proto)
        )
        state = self._flows.pop(flow_id, None)
        if state is not None and self._pick(self._keys[flow_id], 0) != state[0]:
            self._count_rehash()

    def current_assignment(self, flow_id):
        """Member index ``flow_id`` is currently routed on (None if unseen)."""
        state = self._flows.get(flow_id)
        return None if state is None else state[0]

    def predicted_assignment(self, flow_id, epoch=0):
        """Member index a (new) flow would hash onto -- pure, no state."""
        return self._pick(self.flow_key(flow_id), epoch)

    def _pick(self, key, epoch):
        return ecmp_hash(key, self.seed, epoch) % len(self.members)

    def _count_rehash(self):
        self.rehashes += 1
        if _obs.ENABLED:
            _obs.SINK.inc("netsim.multipath.rehashes")

    def _record_assignment(self, flow_id, now, member):
        self.assignment_history.setdefault(flow_id, []).append((now, member))

    def _route(self, flow_id):
        now = self.sim._now
        state = self._flows.get(flow_id)
        if state is None:
            member = self._pick(self.flow_key(flow_id), 0)
            self._flows[flow_id] = [member, now, 0]
            self._record_assignment(flow_id, now, member)
            return member
        member, last, epoch = state
        if self.flowlet_gap_s is not None and now - last > self.flowlet_gap_s:
            epoch += 1
            state[2] = epoch
            fresh = self._pick(self._keys[flow_id], epoch)
            if fresh != member:
                state[0] = member = fresh
                self.flowlet_switches += 1
                self.flow_switches[flow_id] = self.flow_switches.get(flow_id, 0) + 1
                self._record_assignment(flow_id, now, member)
                if _obs.ENABLED:
                    _obs.SINK.inc("netsim.multipath.flowlet_switches")
        state[1] = now
        return member

    def send(self, packet):
        """Offer a packet to the bundle: hash, then forward to the member.

        Forwarding is synchronous -- the member link does all queueing
        and scheduling -- so a 1-member bundle adds zero events and the
        member's ``_try_transmit`` advances the packet past *this*
        hop's position in its path.
        """
        self.packets_offered += 1
        self.members[self._route(packet.flow_id)].send(packet)
