"""``PolicyInternet``: a routable internet grown from an AS graph.

The one world model behind the scamper traceroute model, annotation
databases, topology construction, post-replay verification, and the
coordinator.  It exposes ``servers``/``clients``/``isps``/``route``/
``isp_of``/``find_client``/``transit_routers``; routes come from
Gao-Rexford policy routing over a seeded CAIDA-style graph, and they
*move*: attach a :class:`~repro.inet.dynamics.RouteDynamics` schedule
and advance the clock, and paths fail over, converge, and flip
underneath whatever is measuring them.

Real-world messiness topology construction must survive is drawn per
ISP/router: ``icmp_block_fraction`` of ISPs drop ICMP near the client,
so their traceroutes end before the destination (condition (a) of
Section 3.3), and ``alias_fraction`` of border and aggregation routers
answer from a different interface IP per incoming link, so consecutive
traceroute links do not meet at the same IP (condition (b)).

Router-level expansion is deterministic: each transit AS on a path
contributes one router chosen by the ingress neighbor (two paths
entering an AS from the same neighbor share the router -- the shared
node outside the ISP that topology construction must reject), and the
destination ISP contributes a border keyed by the entry provider, the
client's aggregation router, and the last-mile router -- so paths
entering through different providers converge exactly once, inside
the ISP, which is precisely Section 3.3's suitable topology.

During a convergence window a (server, client) pair keeps using its
old path; if that path crosses a failed link the router expansion
truncates there, the traceroute dies in transit, and completeness
filter (a) rejects it -- the same observable a real blackholed BGP
transient produces.
"""

from dataclasses import dataclass, field

from repro.inet.policy import as_path as _as_path
from repro.inet.policy import compute_routes
from repro.inet.dynamics import convergence_fraction
from repro.obs import metrics as _obs


def _ip(a, b, c, d):
    return f"{a}.{b}.{c}.{d}"


@dataclass
class Router:
    """One router; may expose several interface IPs (aliasing)."""

    name: str
    asn: int
    interfaces: tuple
    aliased: bool = False

    def ip_for(self, incoming_index):
        """Interface IP used when answering a probe arriving on a link.

        Non-aliased routers always answer from their canonical IP;
        aliased routers answer from a per-link interface, which is what
        breaks naive IP-level node comparison.
        """
        if not self.aliased:
            return self.interfaces[0]
        return self.interfaces[incoming_index % len(self.interfaces)]


@dataclass
class Client:
    """An end host inside a client ISP."""

    name: str
    ip: str
    asn: int
    isp: str


@dataclass
class Server:
    """An M-Lab measurement server."""

    name: str
    ip: str
    asn: int
    site: str


@dataclass
class Isp:
    """A client ISP with its internal router hierarchy."""

    name: str
    asn: int
    borders: list = field(default_factory=list)
    aggregations: list = field(default_factory=list)
    last_miles: dict = field(default_factory=dict)  # client name -> Router
    blocks_icmp: bool = False


class PolicyInternet:
    """Build a routable internet over a policy-routed AS graph.

    Parameters:
        graph: an :class:`~repro.inet.asgraph.ASGraph`; generated from
            ``seed``/``n_ases`` when omitted.
        rng: numpy Generator for site/ISP selection and messiness
            draws; derived from ``seed`` when omitted.
        n_sites: M-Lab sites (one content-stub AS each).
        servers_per_site: servers per site.
        n_client_isps: stub ASes promoted to client ISPs.
        clients_per_isp: clients attached to each ISP.
        routers_per_as: routers per transit/tier-1 AS (ingress
            diversity of the router-level expansion).
        icmp_block_fraction: fraction of client ISPs that block ICMP
            near the client (their traceroutes are incomplete).
        alias_fraction: fraction of border/aggregation routers that
            are IP-aliased.
        dynamics: optional :class:`~repro.inet.dynamics.RouteDynamics`;
            attach later with :meth:`attach_dynamics` if preferred.
    """

    def __init__(
        self,
        graph=None,
        seed=0,
        n_ases=200,
        rng=None,
        n_sites=4,
        servers_per_site=2,
        n_client_isps=8,
        clients_per_isp=3,
        routers_per_as=2,
        icmp_block_fraction=0.0,
        alias_fraction=0.0,
        dynamics=None,
    ):
        if n_sites < 2:
            raise ValueError("need at least two M-Lab sites")
        if min(servers_per_site, n_client_isps) < 1:
            raise ValueError("servers_per_site and n_client_isps must be >= 1")
        if not 1 <= clients_per_isp <= 155:
            # Client c of an ISP owns the /24 x.y.(100 + c).0.
            raise ValueError("clients_per_isp must be in [1, 155]")
        if graph is None:
            from repro.inet.asgraph import generate_as_graph

            graph = generate_as_graph(seed, n_ases=n_ases)
        if rng is None:
            import numpy as np

            rng = np.random.default_rng([int(seed), 0x1E7])
        self.graph = graph
        self.rng = rng
        self.now = 0.0
        self.dynamics = None
        self.telemetry = {"path_changes": 0, "events_applied": 0}

        stubs = [a for a in graph.asns if graph.tiers[a] == "stub"]
        content = [a for a in graph.asns if graph.tiers[a] == "content"]
        if not content:
            content, stubs = stubs[: max(n_sites, 1)], stubs[max(n_sites, 1):]
        if n_sites > len(content):
            raise ValueError(
                f"graph has {len(content)} content stubs; need {n_sites} sites"
            )

        # Server sites: deterministic rng pick among content stubs.
        site_picks = rng.permutation(len(content))[:n_sites]
        self.site_asns = sorted(content[int(i)] for i in site_picks)
        self.servers = []
        for site_index, asn in enumerate(self.site_asns):
            for k in range(servers_per_site):
                self.servers.append(
                    Server(
                        f"mlab{site_index}-{k}",
                        _ip(10, site_index, 0, 10 + k),
                        asn,
                        f"site-{site_index}",
                    )
                )

        # Client ISPs: multihomed stubs first (the interesting failover
        # cases), then single-homed to fill.
        multi = [a for a in stubs if len(graph.providers(a)) >= 2]
        single = [a for a in stubs if len(graph.providers(a)) < 2]
        ordered = [multi[int(i)] for i in rng.permutation(len(multi))] + [
            single[int(i)] for i in rng.permutation(len(single))
        ]
        ordered = [a for a in ordered if a not in self.site_asns]
        if n_client_isps > len(ordered):
            raise ValueError(
                f"graph has {len(ordered)} candidate stubs; "
                f"need {n_client_isps} client ISPs"
            )
        self.isp_asns = sorted(ordered[:n_client_isps])

        self.isps = []
        self.clients = []
        self._isps_by_name = {}
        self._isps_by_asn = {}
        self._clients_by_name = {}
        self._borders_by_neighbor = {}  # isp asn -> {provider asn -> Router}
        self._client_agg = {}  # client name -> Router
        for i, asn in enumerate(self.isp_asns):
            isp = Isp(
                name=f"isp-{i}",
                asn=asn,
                blocks_icmp=bool(rng.random() < icmp_block_fraction),
            )
            octet = 200 + i // 200
            by_neighbor = {}
            # One border per provider edge (link state does not remove
            # the hardware, just the route through it).
            for b, provider in enumerate(sorted(graph._providers[asn])):
                border = Router(
                    f"{isp.name}-border{b}",
                    asn,
                    tuple(_ip(octet, i % 200, b, 1 + k) for k in range(3)),
                    aliased=bool(rng.random() < alias_fraction),
                )
                isp.borders.append(border)
                by_neighbor[provider] = border
            self._borders_by_neighbor[asn] = by_neighbor
            for a in range(2):
                isp.aggregations.append(
                    Router(
                        f"{isp.name}-agg{a}",
                        asn,
                        tuple(_ip(octet, i % 200, 10 + a, 1 + k) for k in range(3)),
                        aliased=bool(rng.random() < alias_fraction),
                    )
                )
            for c in range(clients_per_isp):
                client = Client(
                    f"{isp.name}-client{c}",
                    _ip(octet, i % 200, 100 + c, 7),
                    asn,
                    isp.name,
                )
                isp.last_miles[client.name] = Router(
                    f"{isp.name}-lm{c}",
                    asn,
                    (_ip(octet, i % 200, 100 + c, 1),),
                )
                self._client_agg[client.name] = isp.aggregations[
                    c % len(isp.aggregations)
                ]
                self.clients.append(client)
                self._clients_by_name[client.name] = client
            self.isps.append(isp)
            self._isps_by_name[isp.name] = isp
            self._isps_by_asn[asn] = isp

        # Routers for every AS that can appear mid-path (everything
        # except client ISPs, whose internals are modelled above).
        self.transit_routers = {}
        isp_set = set(self.isp_asns)
        backbone = [a for a in graph.asns if a not in isp_set]
        for index, asn in enumerate(backbone):
            self.transit_routers[asn] = [
                Router(
                    f"as{asn}-r{j}",
                    asn,
                    (_ip(60 + index // 250, index % 250, j, 1),),
                )
                for j in range(routers_per_as)
            ]

        self._trees = {}  # dest asn -> {asn: Route}
        self._stale = {}  # (server name, client name) -> (deadline, as_path)
        if dynamics is not None:
            self.attach_dynamics(dynamics)

    # -- lookups ------------------------------------------------------

    def isp_of(self, client):
        try:
            return self._isps_by_name[client.isp]
        except KeyError:
            raise KeyError(client.isp) from None

    def find_client(self, name):
        try:
            return self._clients_by_name[name]
        except KeyError:
            raise KeyError(name) from None

    # -- routing ------------------------------------------------------

    def _tree(self, dest_asn):
        tree = self._trees.get(dest_asn)
        if tree is None:
            tree = self._trees[dest_asn] = compute_routes(self.graph, dest_asn)
        return tree

    def current_as_path(self, server, client):
        """The converged AS path (ignores convergence-window staleness)."""
        return _as_path(self._tree(client.asn), server.asn, client.asn)

    def effective_as_path(self, server, client):
        """The AS path actually forwarding *now* (stale during windows)."""
        stale = self._stale.get((server.name, client.name))
        if stale is not None:
            deadline, old_path = stale
            if self.now < deadline:
                return old_path
            del self._stale[(server.name, client.name)]
        return self.current_as_path(server, client)

    def _expand(self, path):
        """Router-level expansion of an AS path, truncated at any
        failed link the (stale) path still crosses."""
        if not path:
            return []
        routers = []
        graph = self.graph
        prev = path[0]
        for asn in path[1:]:
            if not graph.link_is_up(prev, asn):
                return routers  # blackhole: the probe dies here
            isp = self._isps_by_asn.get(asn)
            if isp is not None:
                border = self._borders_by_neighbor[asn].get(prev)
                if border is None:  # entered via a non-provider edge
                    border = isp.borders[prev % len(isp.borders)]
                routers.append(border)
                return routers  # caller appends agg + last mile
            pool = self.transit_routers[asn]
            routers.append(pool[prev % len(pool)])
            prev = asn
        return routers

    def route(self, server, client):
        """The router-level path from ``server`` to ``client``.

        An unreachable or mid-convergence-blackholed destination yields
        a truncated (possibly empty) path; the traceroute layer turns
        that into an incomplete record, exactly like a real probe into
        a withdrawn prefix.
        """
        path = self.effective_as_path(server, client)
        if path is None:
            return []
        routers = self._expand(path)
        isp = self._isps_by_asn[client.asn]
        if routers and routers[-1].asn == client.asn:
            routers.append(self._client_agg[client.name])
            routers.append(isp.last_miles[client.name])
        return routers

    # -- dynamics -----------------------------------------------------

    def attach_dynamics(self, dynamics):
        if self.dynamics is not None:
            raise RuntimeError("dynamics already attached")
        self.dynamics = dynamics

    def advance_to(self, t):
        """Advance the clock, applying every due dynamics event.

        Each event snapshots the *effective* path of every
        (server, client) pair, mutates the graph, recomputes, and
        registers a per-pair convergence deadline for every changed
        path -- until the deadline the pair keeps forwarding over the
        old (possibly now-broken) path.
        """
        if t < self.now:
            raise ValueError("time moves forward only")
        if self.dynamics is None:
            self.now = float(t)
            return
        for event in self.dynamics.due_events(t):
            self.now = event.time
            event_index = self.telemetry["events_applied"]
            before = {
                (server.name, client.name): self.effective_as_path(server, client)
                for server in self.servers
                for client in self.clients
            }
            self.dynamics.apply_to_graph(self.graph, event)
            self._trees.clear()
            changed = 0
            for server in self.servers:
                for client in self.clients:
                    old = before[(server.name, client.name)]
                    new = self.current_as_path(server, client)
                    if old == new:
                        continue
                    changed += 1
                    frac = convergence_fraction(
                        server.asn, client.asn, event_index
                    )
                    deadline = event.time + frac * event.convergence_s
                    self._stale[(server.name, client.name)] = (deadline, old)
            self.telemetry["path_changes"] += changed
            self.telemetry["events_applied"] += 1
            if _obs.ENABLED:
                _obs.SINK.inc("inet.path_changes", changed)
                _obs.SINK.inc("inet.dynamics_events")
        self.now = float(t)

    @property
    def converged(self):
        """True when no pair is inside a convergence window."""
        return all(deadline <= self.now for deadline, _ in self._stale.values())
