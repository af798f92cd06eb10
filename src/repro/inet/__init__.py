"""``repro.inet`` -- an internet-scale AS topology with policy routing.

The world model every :mod:`repro.mlab` stage (traceroutes,
annotations, topology construction, verification) and the coordinator
run over, sized and shaped like the internet topology construction
(Section 3.3) actually faces:

- :mod:`~repro.inet.asgraph` -- a seeded CAIDA-style AS-level graph:
  power-law degrees via preferential attachment, customer/provider and
  peer edge labels, a tier-1 clique, transit tiers, and stub ASes --
  byte-identical per seed;
- :mod:`~repro.inet.policy` -- a Gao-Rexford policy-routing engine:
  valley-free best paths under the standard export rules (routes
  learned from customers are exported to everyone; peer- and
  provider-learned routes only to customers), local-pref
  customer > peer > provider, then shortest AS path, then lowest
  next-hop ASN;
- :mod:`~repro.inet.dynamics` -- a seeded route-dynamics schedule:
  link failures, recoveries, and policy flips that change paths
  mid-test, with bounded per-(source, destination) convergence windows
  during which stale paths keep being used (and traceroutes over a
  failed link truncate, exactly as BGP transients blackhole);
- :mod:`~repro.inet.internet` -- :class:`PolicyInternet`: M-Lab
  server sites and client ISPs (with router hierarchies, ICMP blocking
  and IP aliasing) placed on the graph, with router-level routes
  (``servers``/``clients``/``isps``/``route``/``isp_of``/
  ``find_client``) on 1000+-AS graphs;
- :mod:`~repro.inet.oracle` -- the ground-truth oracle: it derives the
  *true* suitable server pairs from the graph itself and scores a TC
  :class:`~repro.mlab.topology_construction.TopologyDatabase` with
  precision/recall, before, during, and after dynamics;
- :mod:`~repro.inet.coltable` -- a columnar table engine (numpy column
  arrays, vectorized equi-join and predicate scans) behind the same
  API as :class:`repro.mlab.tables.Table`, for BigQuery-scale row
  counts.
"""

from repro.inet.asgraph import ASGraph, generate_as_graph
from repro.inet.coltable import ColumnarTable
from repro.inet.dynamics import RouteDynamics, RouteEvent, generate_schedule
from repro.inet.internet import PolicyInternet
from repro.inet.oracle import TopologyOracle
from repro.inet.policy import as_path, compute_routes

__all__ = [
    "ASGraph",
    "generate_as_graph",
    "compute_routes",
    "as_path",
    "RouteEvent",
    "RouteDynamics",
    "generate_schedule",
    "PolicyInternet",
    "TopologyOracle",
    "ColumnarTable",
]
