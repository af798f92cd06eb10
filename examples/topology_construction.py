"""Topology construction over a synthetic internet (Section 3.3).

Places M-Lab sites and client ISPs (including ICMP-blocking ISPs and
IP-aliased routers) on a seeded 200-AS policy-routed graph, collects a
month of traceroutes, runs the TC pipeline, and queries the resulting
topology database the way a WeHeY client would.

Run:  python examples/topology_construction.py
"""

import numpy as np

from repro.inet import PolicyInternet
from repro.mlab.annotations import AnnotationDatabase
from repro.mlab.tables import annotation_table, traceroute_table
from repro.mlab.topology_construction import topology_coverage
from repro.mlab.traceroute import collect_month


def main():
    rng = np.random.default_rng(2023)
    internet = PolicyInternet(
        seed=0,
        rng=rng,
        n_sites=5,
        servers_per_site=2,
        n_client_isps=10,
        clients_per_isp=6,
        icmp_block_fraction=0.3,
        alias_fraction=0.2,
    )
    print(f"internet: {len(internet.servers)} servers, "
          f"{len(internet.isps)} ISPs, {len(internet.clients)} clients")

    annotations = AnnotationDatabase(internet, rng=rng, miss_rate=0.02)
    records = collect_month(internet, rng)
    print(f"traceroutes collected: {len(records)} "
          f"({sum(r.reached_destination for r in records)} reached destination)")

    # The two BigQuery-style tables and their merge (what TC ingests).
    hops = traceroute_table(records)
    merged = hops.join(annotation_table(annotations), on="hop_ip", how="left")
    annotated = sum(1 for row in merged if row["asn"] is not None)
    print(f"hop table: {len(hops)} rows; merged+annotated: "
          f"{annotated}/{len(merged)}")

    database, stats = topology_coverage(records, annotations)
    print(f"clients with complete traceroutes: {stats['complete_fraction']:.0%} "
          f"(paper: 52%)")
    print(f"...of which with a suitable topology: {stats['suitable_fraction']:.0%} "
          f"(paper: 74%)")

    print(f"topology database: {len(database)} suitable server pairs for "
          f"{len(database.destinations)} destinations")

    # A client-side lookup, as in Section 3.4 step (1).
    for client in internet.clients:
        pairs = database.lookup(client.ip, client.asn)
        if pairs:
            best = pairs[0]
            print(f"\nexample lookup for {client.name} ({client.ip}):")
            print(f"  server pair : {best.server_pair}")
            print(f"  converging at in-ISP node(s): {best.common_candidates}")
            break


if __name__ == "__main__":
    main()
