"""Post-replay topology verification (Section 3.4, step 4).

At the end of both simultaneous replays, each server traceroutes the
client again and the measurement-gathering server checks that the
topology is *still* suitable (paths converge once, inside the ISP).
Routes change; when verification fails the measurements are discarded
and the topology database entry is invalidated.

``TopologyVerifier`` re-runs the traceroutes over the world model and
runs topology construction on them; the routes it sees move only when
the internet's :class:`~repro.inet.dynamics.RouteDynamics` schedule
moves them, which is what exercises the discard path.
"""

from repro.mlab.tables import annotation_table, traceroute_table
from repro.mlab.topology_construction import construct
from repro.mlab.traceroute import run_traceroute
from repro.obs import metrics as _obs


class TopologyVerifier:
    """Re-validates a suitable topology after the replays."""

    def __init__(self, internet, annotations, rng):
        self.internet = internet
        self.rng = rng
        self._annotation_table = annotation_table(annotations, backend="columnar")

    def verify(self, topology_entry, client_name):
        """True iff the server pair still forms a suitable topology:
        topology construction over the pair's fresh traceroutes lists
        the pair under the entry's destination."""
        client = self.internet.find_client(client_name)
        servers = {s.name: s for s in self.internet.servers}
        records = []
        for server_name in topology_entry.server_pair:
            server = servers.get(server_name)
            if server is None:
                return False
            records.append(run_traceroute(self.internet, server, client, self.rng))
            # Scratch builds, not TC runs: they stay out of the TC
            # counters.
            with _obs.use_sink(None):
                database, complete = construct(
                    traceroute_table(records, backend="columnar"),
                    self._annotation_table,
                )
            if not complete:
                # The first traceroute fails filter (a) or (b): stop
                # before the second draws from the rng the verifier
                # shares with the coordinator.
                return False
        key = (topology_entry.destination_prefix, topology_entry.destination_asn)
        return any(
            entry.server_pair == topology_entry.server_pair
            for entry in database.entries.get(key, ())
        )
