"""Post-replay topology verification (Section 3.4, step 4).

At the end of both simultaneous replays, each server traceroutes the
client again and the measurement-gathering server checks that the
topology is *still* suitable (paths converge once, inside the ISP).
Routes change; when verification fails the measurements are discarded
and the topology database entry is invalidated.

``TopologyVerifier`` re-runs the traceroutes over the world model; the
routes it sees move only when the internet's
:class:`~repro.inet.dynamics.RouteDynamics` schedule moves them, which
is what exercises the discard path.
"""

from repro.mlab.topology_construction import TopologyConstructor
from repro.mlab.traceroute import run_traceroute


class TopologyVerifier:
    """Re-validates a suitable topology after the replays."""

    def __init__(self, internet, annotations, rng):
        self.internet = internet
        self.annotations = annotations
        self.rng = rng
        self._constructor = TopologyConstructor(annotations)

    def verify(self, topology_entry, client_name):
        """True iff the server pair still forms a suitable topology."""
        client = self.internet.find_client(client_name)
        servers = {s.name: s for s in self.internet.servers}
        records = []
        for server_name in topology_entry.server_pair:
            server = servers.get(server_name)
            if server is None:
                return False
            record = run_traceroute(self.internet, server, client, self.rng)
            if not self._constructor.usable(record):
                return False
            records.append(record)
        suitable, _ = self._constructor.pair_is_suitable(
            records[0], records[1], topology_entry.destination_asn
        )
        return suitable
