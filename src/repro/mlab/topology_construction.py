"""The topology-construction (TC) module -- Section 3.3.

TC periodically ingests M-Lab's traceroute and annotation tables,
merges them, filters out unusable traceroutes, and then -- for each
traceroute destination -- finds the pairs of M-Lab servers whose paths
to that destination converge exactly once, inside the destination's
ISP.  Its output, the topology database, maps a destination's /24
prefix and ASN to the usable server pairs.

Filters (both applied before the pair search):

(a) the last reported hop must have the same ASN as the destination
    (otherwise the traceroute died early, e.g. the ISP blocks ICMP);
(b) two subsequent links must meet at the same IP address (IP aliasing
    otherwise makes node identities unreliable; the paper notes alias
    resolution could recover these but is not implemented -- neither do
    we).
"""

import gc
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import repeat
from typing import NamedTuple

import numpy as np

from repro.mlab.tables import annotation_table, traceroute_table
from repro.obs import metrics as _obs


def prefix_of(ip, length=24):
    """The CIDR prefix key of an IPv4 address (``10.1.2.0/24``); a /32
    is the address itself."""
    parts = ip.split(".")
    if len(parts) != 4:
        raise ValueError(f"not an IPv4 address: {ip!r}")
    keep = {8: 1, 16: 2, 24: 3, 32: 4}.get(length)
    if keep is None:
        raise ValueError("prefix length must be one of 8, 16, 24, 32")
    if length == 32:
        return ip
    return ".".join(parts[:keep] + ["0"] * (4 - keep)) + f"/{length}"


class SuitableTopology(NamedTuple):
    """One usable server pair for a destination.

    A tuple, so a million-row build makes each entry in one C call; it
    also compares equal to a plain tuple of the same values.
    """

    destination_prefix: str
    destination_asn: int
    server_pair: tuple  # (server_name_1, server_name_2)
    common_candidates: tuple  # in-ISP IPs where the paths converge


@dataclass
class TopologyDatabase:
    """TC's output table: destination -> suitable server pairs."""

    entries: dict = field(default_factory=dict)

    def add(self, topology):
        key = (topology.destination_prefix, topology.destination_asn)
        self.extend(key, (topology,))

    def extend(self, key, topologies):
        """Append ``topologies``, all for destination ``key``, in order."""
        self.entries.setdefault(key, []).extend(topologies)
        if _obs.ENABLED:
            _obs.SINK.inc("mlab.tc.pairs_found", len(topologies))

    def lookup(self, destination_ip, destination_asn):
        """Server pairs usable for a client at ``destination_ip``.

        Returns a *copy*; removing entries goes through
        :meth:`invalidate`, never by mutating the returned list.
        """
        key = (prefix_of(destination_ip), destination_asn)
        return list(self.entries.get(key, []))

    def invalidate(self, topology):
        """Drop ``topology`` from the database (Section 3.4, step 4).

        Called when post-replay verification finds the routes changed,
        or when an entry turns out to be stale.  Returns True iff the
        entry was present.
        """
        key = (topology.destination_prefix, topology.destination_asn)
        entries = self.entries.get(key)
        if not entries or topology not in entries:
            return False
        entries.remove(topology)
        if not entries:
            del self.entries[key]
        if _obs.ENABLED:
            _obs.SINK.inc("mlab.tc.entries_invalidated")
        return True

    def __len__(self):
        return sum(len(v) for v in self.entries.values())

    @property
    def destinations(self):
        return list(self.entries)


def build_topology(records, annotations):
    """Run the Section-3.3 pipeline over traceroute ``records``.

    The records and the :class:`~repro.mlab.annotations.AnnotationDatabase`
    are flattened into the two M-Lab-shaped tables on the columnar
    backend and run through :func:`build_topology_from_tables`.
    Returns a :class:`TopologyDatabase`.
    """
    return build_topology_from_tables(*_tables(records, annotations))


def topology_coverage(records, annotations):
    """:func:`build_topology` and Section 3.3's coverage numbers (the
    paper's 52% / 74%).

    Returns ``(database, stats)``.  ``stats`` holds the number of
    clients traced (an empty-hop record counts, though it gives no
    table row), the fraction of them with a complete traceroute (one
    that passes filters (a) and (b)), and of those the fraction whose
    /24 has an entry in the database.
    """
    database, complete = construct(*_tables(records, annotations))
    clients = {record.destination_ip for record in records}
    with_topology = {prefix for prefix, _asn in database.entries}
    complete_with_topology = sum(prefix_of(ip) in with_topology for ip in complete)
    return database, {
        "clients": len(clients),
        "complete_fraction": len(complete) / len(clients) if clients else 0.0,
        "suitable_fraction": complete_with_topology / len(complete)
        if complete
        else 0.0,
    }


def _tables(records, annotations):
    return (
        traceroute_table(records, backend="columnar"),
        annotation_table(annotations, backend="columnar"),
    )


def build_topology_from_tables(traceroutes, annotations):
    """Run the Section-3.3 pipeline over the two M-Lab tables.

    This is the BigQuery-shaped formulation: the hop table is
    left-joined with the annotation table on ``hop_ip``, then with the
    annotation table again (renamed) on ``destination_ip``, and the
    filters and pair search run over the merged rows.  It accepts
    either table backend (``repro.mlab.tables.Table`` or
    ``repro.inet.coltable.ColumnarTable``); the database lists each
    destination by its first usable traceroute, and a destination's
    entries in the order of their first suitable traceroute pair.

    After the joins both backends run this one implementation, over
    the integer codes of the tables' ``codes`` method instead of
    decoded values.  IPs and ASNs are each re-coded into one shared
    sorted vocabulary, so equal codes are equal values and code order
    is value order.  Any divergence between the backends is therefore
    the joins' fault, which is what the parity tests pin.
    """
    return construct(traceroutes, annotations)[0]


def construct(traceroutes, annotations):
    """:func:`build_topology_from_tables`, and the complete destinations.

    Returns ``(database, complete)``: ``complete`` lists the
    destination IPs with a traceroute that passes filters (a) and (b),
    each once, in first-seen order.
    """
    from repro.inet.coltable import dictionary_codes  # repro.inet imports this module

    annotated = traceroutes.join_table(annotations, on="hop_ip", how="left")
    destination_side = annotations.renamed(
        {
            "hop_ip": "destination_ip",
            "asn": "destination_asn",
            "country": "destination_country",
        }
    )
    merged = annotated.join_table(
        destination_side, on="destination_ip", how="left"
    )
    if _obs.ENABLED:
        _obs.SINK.inc("mlab.tc.rows_scanned", len(merged))
    database = TopologyDatabase()
    if not len(merged):
        return database, []

    ips, (destination_ips, hop_ips, egress_ips) = _shared_codes(
        merged, ("destination_ip", "hop_ip", "egress_ip")
    )
    asns, (destination_asns, hop_asns) = _shared_codes(
        merged, ("destination_asn", "asn")
    )
    servers, server_names = merged.codes("server_name")
    _, traceroute_ids = merged.codes("traceroute_id")

    record_of_row, record_rows = _usable_records(
        traceroute_ids, hop_ips, egress_ips, hop_asns, destination_asns
    )
    record_servers = server_names[record_rows]
    record_destinations = destination_ips[record_rows]
    # Destinations are numbered by their first record, whose
    # destination ASN they take.
    record_dests, dest_records = _first_seen_numbers(record_destinations)
    dest_asns = destination_asns[record_rows[dest_records]]

    # Incidence rows: each record's distinct hop IPs, its destination
    # excluded, sorted by (record, IP).  A repeated IP keeps its last
    # row, whose ASN says whether the IP is inside the destination's ISP.
    rows = np.flatnonzero(record_of_row >= 0)
    rows = rows[hop_ips[rows] != record_destinations[record_of_row[rows]]]
    width = len(ips) + 1  # IP codes shift by one, so a None hop is 0
    rows = rows[
        np.argsort(record_of_row[rows] * width + hop_ips[rows] + 1, kind="stable")
    ]
    rows = rows[_runs(record_of_row[rows], hop_ips[rows])[1] - 1]
    incidence_records = record_of_row[rows]
    incidence_ips = hop_ips[rows]
    incidence_inside = hop_asns[rows] == dest_asns[record_dests[incidence_records]]

    firsts, seconds, starts, ends, shared_ips = _suitable_pairs(
        incidence_records,
        record_dests[incidence_records] * width + incidence_ips + 1,
        incidence_ips,
        incidence_inside,
        record_servers,
    )
    # The first suitable pair in (i, j) order wins its server pair at
    # its destination.  The database lists the winners by destination,
    # then in (i, j) order.
    lows = np.minimum(record_servers[firsts], record_servers[seconds])
    highs = np.maximum(record_servers[firsts], record_servers[seconds])
    dests = record_dests[firsts]
    by_server_pair = np.lexsort((highs, lows, dests))
    winners = np.sort(by_server_pair[
        _runs(dests[by_server_pair], lows[by_server_pair], highs[by_server_pair])[0]
    ])
    winners = winners[np.argsort(dests[winners], kind="stable")]

    # Decode only what the database keeps: one prefix per destination,
    # one tuple per distinct server pair, and a candidate tuple and an
    # entry per winner, whose fields are gathered by array index.  These
    # objects hold no cycles, so the collector is paused while they are
    # built: its passes over the growing heap would cost about as much
    # again.
    with _collector_paused():
        ip_values = np.array(ips.tolist() + [None], dtype=object)  # -1: None
        complete = ip_values[record_destinations[dest_records]].tolist()
        prefixes = np.array(list(map(prefix_of, complete)), dtype=object)
        winner_dests = dests[winners]
        pairs, winner_pairs = dictionary_codes(
            lows[winners] * len(servers) + highs[winners]
        )
        server_pairs = np.fromiter(
            zip(
                servers[pairs // len(servers)].tolist(),
                servers[pairs % len(servers)].tolist(),
            ),
            dtype=object,
            count=len(pairs),
        )
        # The winners' shared IPs, back to back; winner k's are
        # candidates[bounds[k]:bounds[k + 1]].
        starts, ends = starts[winners], ends[winners]
        bounds = np.append(0, np.cumsum(ends - starts))
        flat = np.repeat(starts - bounds[:-1], ends - starts) + np.arange(bounds[-1])
        candidates = ip_values[shared_ips[flat]].tolist()
        bounds = bounds.tolist()
        topologies = list(
            map(
                tuple.__new__,  # SuitableTopology._make, less its length check
                repeat(SuitableTopology),
                zip(
                    prefixes[winner_dests].tolist(),
                    asns[dest_asns[winner_dests]].tolist(),
                    server_pairs[winner_pairs].tolist(),
                    [tuple(candidates[a:b]) for a, b in zip(bounds[:-1], bounds[1:])],
                ),
            )
        )
        for start, end in zip(*(run.tolist() for run in _runs(winner_dests))):
            database.extend(topologies[start][:2], topologies[start:end])
    return database, complete


@contextmanager
def _collector_paused():
    """Turn the cyclic garbage collector off for the block."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _shared_codes(table, names):
    """Codes of several columns of ``table`` in one vocabulary.

    Returns ``(vocabulary, [codes, ...])``: the sorted union of the
    columns' values, and each column's rows re-coded into it (``None``
    stays -1).
    """
    coded = [table.codes(name) for name in names]
    values = [values for values, _ in coded if len(values)]
    vocabulary = np.unique(np.concatenate(values)) if values else np.empty(0)
    return vocabulary, [
        np.append(np.searchsorted(vocabulary, values), -1)[codes]
        for values, codes in coded
    ]


def _usable_records(traceroute_ids, hop_ips, egress_ips, hop_asns, destination_asns):
    """The traceroutes that pass filters (a) and (b): TC's records.

    Returns ``(record_of_row, record_rows)``: each row's record number
    (-1 in an unusable traceroute) and each record's last row, with the
    records numbered in first-seen order.  A traceroute's rows need not
    be contiguous; the stable sort keeps them in row order.
    """
    by_traceroute = np.argsort(traceroute_ids, kind="stable")
    starts, ends = _runs(traceroute_ids[by_traceroute])
    group_of_row = np.empty(len(traceroute_ids), dtype=np.intp)
    group_of_row[by_traceroute] = np.repeat(np.arange(len(starts)), ends - starts)
    last_rows = by_traceroute[ends - 1]
    # Filter (a): the last hop must resolve to the destination ASN.
    usable = (destination_asns[last_rows] >= 0) & (
        hop_asns[last_rows] == destination_asns[last_rows]
    )
    # Filter (b): every reported hop must use one interface for both
    # adjacent links (hop_ip == egress_ip; see ``traceroute_table``).
    usable[group_of_row[hop_ips != egress_ips]] = False
    groups = np.argsort(by_traceroute[starts])
    groups = groups[usable[groups]]
    record_of_group = np.full(len(starts), -1, dtype=np.intp)
    record_of_group[groups] = np.arange(len(groups))
    return record_of_group[group_of_row], last_rows[groups]


def _first_seen_numbers(codes):
    """Number the distinct values of ``codes`` in first-seen order.

    Returns ``(numbers, firsts)``: each entry's number, and each
    number's first entry.
    """
    _, firsts, inverse = np.unique(codes, return_index=True, return_inverse=True)
    order = np.argsort(firsts)
    numbers = np.empty(len(order), dtype=np.intp)
    numbers[order] = np.arange(len(order))
    return numbers[inverse], firsts[order]


def _suitable_pairs(records, join_keys, ips, inside, servers):
    """Self-join incidence rows into the suitable record pairs.

    The incidence rows ``(records, ips, inside)`` come sorted by record;
    ``join_keys`` encodes each row's (destination, IP).  Each two
    records ``i < j`` of different ``servers`` that share a key give
    one (i, j, IP) row, inside iff record j's row is (on a shared IP
    record j's ASN decides).  A pair is
    suitable iff none of its rows is outside.

    Returns ``(firsts, seconds, starts, ends, shared_ips)``: the
    suitable pairs in (i, j) order, and each pair's shared IPs as
    ``shared_ips[start:end]``, ascending.
    """
    by_key = np.argsort(join_keys, kind="stable")
    left, right = _pairs_within_runs(*_runs(join_keys[by_key]))
    left, right = by_key[left], by_key[right]
    distinct = servers[records[left]] != servers[records[right]]
    left, right = left[distinct], right[distinct]
    # The stable sort by (i, j) keeps each pair's IPs ascending.
    n_records = len(servers)
    pair_keys = records[left] * n_records + records[right]
    by_pair = np.argsort(pair_keys, kind="stable")
    pair_keys = pair_keys[by_pair]
    shared_ips = ips[left[by_pair]]
    outside = ~inside[right[by_pair]]
    starts, ends = _runs(pair_keys)
    suitable = ~np.logical_or.reduceat(outside, starts) if len(starts) else starts
    starts, ends = starts[suitable], ends[suitable]
    return (
        pair_keys[starts] // n_records,
        pair_keys[starts] % n_records,
        starts,
        ends,
        shared_ips,
    )


def _runs(*keys):
    """``(starts, ends)`` of each run of equal entries in sorted keys."""
    n = len(keys[0])
    new = np.zeros(n, dtype=bool)
    new[:1] = True
    for key in keys:
        new[1:] |= key[1:] != key[:-1]
    starts = np.flatnonzero(new)
    return starts, np.append(starts[1:], n) if n else starts


def _pairs_within_runs(starts, ends):
    """Positions ``(p, q)``, ``p < q``, of every two entries of one run
    (the runs tile the positions from 0)."""
    sizes = ends - starts
    positions = np.arange(sizes.sum())
    later = np.repeat(ends, sizes) - positions - 1
    p = np.repeat(positions, later)
    q = p + 1 + np.arange(len(p)) - np.repeat(np.cumsum(later) - later, later)
    return p, q
