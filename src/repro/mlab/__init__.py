"""The M-Lab measurement-platform substrate.

WeHeY's topology-construction module (Section 3.3) ingests M-Lab's
traceroute BigQuery tables, annotated with ASN/geo data from MaxMind,
IPinfo.io and RouteViews, and finds -- for every traceroute destination
-- pairs of M-Lab servers whose paths to that destination converge
exactly once, inside the destination's ISP.

Offline we cannot query BigQuery, so this subpackage provides the whole
chain as a faithful substitute, run over the policy-routed world model
of :class:`repro.inet.PolicyInternet` (servers, client ISPs with
internal router hierarchies, and the messiness TC must filter:
ICMP-blocking ISPs and IP aliasing):

- :mod:`~repro.mlab.traceroute` -- scamper-like traceroute records;
- :mod:`~repro.mlab.annotations` -- the ASN/geo annotation databases;
- :mod:`~repro.mlab.tables` -- a tiny joinable record store standing in
  for the two BigQuery tables;
- :mod:`~repro.mlab.topology_construction` -- the TC algorithm itself:
  :func:`build_topology` over records, on
  :func:`build_topology_from_tables` over the two tables.
"""

from repro.mlab.topology_construction import (
    TopologyDatabase,
    build_topology,
    build_topology_from_tables,
)
from repro.mlab.traceroute import TracerouteRecord, run_traceroute

__all__ = [
    "TracerouteRecord",
    "run_traceroute",
    "TopologyDatabase",
    "build_topology",
    "build_topology_from_tables",
]
