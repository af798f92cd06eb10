"""Seeded route dynamics: failures, recoveries, and policy flips.

A :class:`RouteDynamics` instance owns a sorted schedule of
:class:`RouteEvent`\\ s and applies them to a
:class:`~repro.inet.internet.PolicyInternet` as its clock advances.
Each applied event perturbs the AS graph (link down/up, provider
preference flip) and starts a *convergence window*: for every
(server, client) pair whose path changed, the old path keeps being
served for a deterministic per-pair fraction of the window -- exactly
the BGP transient where different vantage points converge at different
times, and traffic over a withdrawn path blackholes.  Traceroutes over
a stale path truncate at the failed link, so topology construction's
completeness filter, post-replay verification, and the coordinator's
``invalidate`` path all get exercised while the ground truth shifts.

Schedules are generated with pure SHA-256-free numpy draws from the
seed and are byte-identical per ``(graph, seed, parameters)`` --
``tests/inet`` pins the serialization.
"""

import zlib
from dataclasses import dataclass

import numpy as np

LINK_DOWN = "link_down"
LINK_UP = "link_up"
POLICY_FLIP = "policy_flip"


@dataclass(frozen=True)
class RouteEvent:
    """One scheduled routing change."""

    time: float
    kind: str  # LINK_DOWN / LINK_UP / POLICY_FLIP
    a: int  # link endpoint, or the AS whose policy flips
    b: int  # other endpoint, or the newly preferred provider
    convergence_s: float = 30.0

    def serialize(self):
        return (
            f"{self.time:.6f} {self.kind} {self.a} {self.b} "
            f"{self.convergence_s:.6f}"
        )


def convergence_fraction(src_asn, dst_asn, event_index):
    """Deterministic per-(source, destination) convergence position.

    Returns a fraction in [0.15, 1.0): the pair adopts the new route
    after that fraction of the event's convergence window.  CRC-32 over
    the triple keeps the schedule machine-independent (``hash()`` is
    salted per process).
    """
    h = zlib.crc32(f"{src_asn}:{dst_asn}:{event_index}".encode())
    return 0.15 + 0.85 * (h / 2**32)


def _flippable_stubs(graph):
    """Stub ASes eligible for a policy flip: >= 2 providers, no customers."""
    eligible = []
    for asn in graph.asns:
        if graph.tiers[asn] in ("stub", "content") and not graph.customers(asn):
            if len(graph.providers(asn)) >= 2:
                eligible.append(asn)
    return eligible


def generate_schedule(
    graph,
    seed,
    n_failures=2,
    n_flips=1,
    start=10.0,
    spacing=40.0,
    convergence_s=30.0,
    recovery_after=2.0,
    targets=None,
):
    """A seeded failure/recovery/flip schedule over ``graph``.

    Failures target provider links of multihomed stubs (so a failover
    path exists and the event is survivable); each failure is followed
    by a recovery ``recovery_after`` windows later.  Flips toggle a
    multihomed stub's preferred provider.  Events are spaced
    ``spacing`` seconds apart starting at ``start``.

    ``targets`` restricts the perturbed stubs to the given ASNs --
    pass a :class:`~repro.inet.internet.PolicyInternet`'s
    ``isp_asns`` to guarantee the events move paths the topology
    database actually covers.
    """
    if n_failures < 0 or n_flips < 0:
        raise ValueError("event counts must be >= 0")
    rng = np.random.default_rng([int(seed), 0xD1A])
    multihomed = _flippable_stubs(graph)
    if targets is not None:
        allowed = set(targets)
        multihomed = [asn for asn in multihomed if asn in allowed]
    if not multihomed:
        raise ValueError("graph has no multihomed stubs to perturb")
    events = []
    t = float(start)
    order = rng.permutation(len(multihomed))
    cursor = 0

    for _ in range(n_failures):
        asn = multihomed[int(order[cursor % len(order)])]
        cursor += 1
        providers = graph.providers(asn)
        provider = providers[int(rng.integers(0, len(providers)))]
        events.append(
            RouteEvent(t, LINK_DOWN, asn, provider, convergence_s)
        )
        events.append(
            RouteEvent(
                t + recovery_after * convergence_s,
                LINK_UP,
                asn,
                provider,
                convergence_s,
            )
        )
        t += spacing

    for _ in range(n_flips):
        asn = multihomed[int(order[cursor % len(order)])]
        cursor += 1
        providers = graph.providers(asn)
        current = graph.provider_pref.get(asn)
        choices = [p for p in providers if p != current]
        preferred = choices[int(rng.integers(0, len(choices)))]
        events.append(RouteEvent(t, POLICY_FLIP, asn, preferred, convergence_s))
        t += spacing

    events.sort(key=lambda e: (e.time, e.kind, e.a, e.b))
    return tuple(events)


def serialize_schedule(events):
    """Canonical text form of a schedule (pinned by determinism tests)."""
    return "\n".join(event.serialize() for event in events)


class RouteDynamics:
    """Applies a schedule to a live graph as time advances.

    The owning :class:`~repro.inet.internet.PolicyInternet` calls
    :meth:`due_events` from its ``advance_to`` and applies the graph
    mutation itself (it owns the path caches); this class tracks the
    schedule cursor and exposes what changed for telemetry.
    """

    def __init__(self, events):
        self.events = tuple(sorted(events, key=lambda e: (e.time, e.kind, e.a, e.b)))
        self._next = 0
        self.applied = []

    def due_events(self, now):
        """Events with ``time <= now`` not yet handed out, in order."""
        due = []
        while self._next < len(self.events) and self.events[self._next].time <= now:
            due.append(self.events[self._next])
            self._next += 1
        self.applied.extend(due)
        return due

    @property
    def pending(self):
        return self.events[self._next:]

    def apply_to_graph(self, graph, event):
        """Mutate ``graph`` per ``event`` (link state or policy)."""
        if event.kind == LINK_DOWN:
            graph.link_down(event.a, event.b)
        elif event.kind == LINK_UP:
            graph.link_up(event.a, event.b)
        elif event.kind == POLICY_FLIP:
            graph.provider_pref[event.a] = event.b
        else:
            raise ValueError(f"unknown event kind {event.kind!r}")
