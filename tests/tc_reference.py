"""The tests' oracle for topology construction.

:func:`reference_build` is Section 3.3 written as the plainest loop over
the merged rows (row backend): group the rows by traceroute, apply
filters (a) and (b), and check every record pair from scratch.
``build_topology_from_tables`` must build exactly its database.
"""

from repro.mlab.topology_construction import (
    SuitableTopology,
    TopologyDatabase,
    prefix_of,
)


def reference_build(traceroutes, annotations):
    """The per-row loop over the merged rows: group, filter, and check
    every record pair from scratch (row backend)."""
    destination_side = annotations.renamed(
        {"hop_ip": "destination_ip", "asn": "destination_asn",
         "country": "destination_country"}
    )
    merged = traceroutes.join_table(
        annotations, on="hop_ip", how="left"
    ).join_table(destination_side, on="destination_ip", how="left")
    groups = {}
    for row in merged:
        groups.setdefault(row["traceroute_id"], []).append(row)
    by_destination = {}
    for rows in groups.values():
        last = rows[-1]
        if last["destination_asn"] is None or \
                last["asn"] != last["destination_asn"]:
            continue
        if any(row["hop_ip"] != row["egress_ip"] for row in rows):
            continue
        hops = {row["hop_ip"]: row["asn"] for row in rows}  # last row wins
        by_destination.setdefault(
            last["destination_ip"], (last["destination_asn"], [])
        )[1].append((last["server_name"], hops))
    database = TopologyDatabase()
    for destination, (asn, records) in by_destination.items():
        seen = set()
        for i, (server_1, hops_1) in enumerate(records):
            for server_2, hops_2 in records[i + 1:]:
                pair = tuple(sorted((server_1, server_2)))
                if server_1 == server_2 or pair in seen:
                    continue
                common = (hops_1.keys() & hops_2.keys()) - {destination}
                if common and all(hops_2[ip] == asn for ip in common):
                    seen.add(pair)
                    database.add(SuitableTopology(
                        prefix_of(destination), asn, pair,
                        tuple(sorted(common)),
                    ))
    return database
