"""``build_topology_from_tables`` on small hand-built tables.

Each hand-built case is one edge of the Section-3.3 pipeline as the
tables express it.  Its expected database and counters are pinned
values, asserted on both table backends: key order, per-key list order
and every entry field.  Random tables are then checked against
:func:`tc_reference.reference_build`, the per-row loop formulation.
"""

import random

import pytest

from repro.mlab.tables import TRACEROUTE_COLUMNS, make_table
from repro.mlab.topology_construction import (
    SuitableTopology,
    TopologyDatabase,
    build_topology_from_tables,
)
from repro.obs import MetricsSink, harvest_topology_database, use_sink
from tc_reference import reference_build

ISP, TRANSIT = 100, 7

#: The base annotation rows: ISP routers and clients in AS 100, transit
#: routers in AS 7.  ``9.9.9.x`` and ``100.9.9.9`` are deliberately absent.
ANNOTATIONS = (
    [(f"100.0.0.{i}", ISP) for i in range(1, 10)]
    + [(f"7.0.0.{i}", TRANSIT) for i in range(1, 10)]
    + [("100.1.1.10", ISP), ("100.1.1.20", ISP), ("100.1.2.30", ISP)]
)


def _trace(tid, server, destination, hops):
    """Hop rows of one traceroute; a hop is an IP or an ``(ip, egress)`` pair."""
    rows = []
    for index, hop in enumerate(hops):
        ip, egress = hop if isinstance(hop, tuple) else (hop, hop)
        rows.append(
            {
                "traceroute_id": tid,
                "server_name": server,
                "server_ip": f"200.0.0.{server[1:]}",
                "destination_ip": destination,
                "hop_index": index,
                "hop_ip": ip,
                "egress_ip": egress,
                "rtt_ms": float(index + 1),
            }
        )
    return rows


def _interleave(*traces):
    """Round-robin the rows of several traceroutes."""
    rows = []
    for index in range(max(len(t) for t in traces)):
        rows += [t[index] for t in traces if index < len(t)]
    return rows


def fan_out():
    """Duplicate annotation keys: the last annotation's ASN decides."""
    extra = [
        ("100.0.0.2", TRANSIT),  # last says outside
        ("7.0.0.3", ISP),  # last says inside
        ("100.1.1.10", ISP),  # destination side fans out too
    ]
    hops = (
        _trace(0, "s1", "100.1.1.10", ["7.0.0.1", "100.0.0.2", "100.0.0.5"])
        + _trace(1, "s2", "100.1.1.10", ["7.0.0.2", "100.0.0.2", "100.0.0.5"])
        + _trace(2, "s3", "100.1.1.10", ["7.0.0.3", "100.0.0.6", "100.0.0.5"])
        + _trace(3, "s4", "100.1.1.10", ["7.0.0.4", "7.0.0.3", "100.0.0.7"])
    )
    return hops, ANNOTATIONS + extra


def annotation_miss():
    """An unannotated middle hop counts as outside; a last one fails (a)."""
    hops = (
        _trace(0, "s1", "100.1.1.10",
               ["7.0.0.1", "9.9.9.9", "100.0.0.1", "100.0.0.5"])
        + _trace(1, "s2", "100.1.1.10",
                 ["7.0.0.2", "9.9.9.9", "100.0.0.2", "100.0.0.5"])
        + _trace(2, "s3", "100.1.1.10", ["7.0.0.3", "100.0.0.3", "9.9.9.8"])
        + _trace(3, "s3", "100.1.1.10", ["7.0.0.3", "100.0.0.3", "100.0.0.5"])
    )
    return hops, ANNOTATIONS


def interleaved():
    """Non-contiguous, unordered traceroute ids group in first-seen order."""
    hops = _interleave(
        _trace(1, "s1", "100.1.2.30",
               ["7.0.0.1", ("100.0.0.4", "100.0.0.8"), "100.0.0.9"]),
        _trace(5, "s2", "100.1.1.10", ["7.0.0.1", "100.0.0.1", "100.0.0.5"]),
        _trace(2, "s1", "100.1.1.10", ["7.0.0.2", "100.0.0.2", "100.0.0.5"]),
        _trace(9, "s3", "100.1.1.10",
               ["7.0.0.3", "7.0.0.4", "100.0.0.3", "100.0.0.5"]),
        _trace(3, "s2", "100.1.2.30", ["7.0.0.5", "100.0.0.4", "100.0.0.9"]),
        _trace(4, "s3", "100.1.2.30", ["7.0.0.6", "100.0.0.4", "100.0.0.9"]),
    )
    return hops, ANNOTATIONS


def hop_is_destination():
    """The destination IP never counts as a convergence point."""
    hops = (
        _trace(0, "s1", "100.1.1.10", ["7.0.0.1", "100.0.0.1", "100.1.1.10"])
        + _trace(1, "s2", "100.1.1.10",
                 ["7.0.0.2", "100.0.0.2", "100.1.1.10"])
        + _trace(2, "s3", "100.1.1.10",
                 ["7.0.0.3", "100.0.0.1", "100.1.1.10"])
        + _trace(3, "s4", "100.1.1.10",
                 ["7.0.0.4", "100.1.1.10", "100.0.0.2"])
    )
    return hops, ANNOTATIONS


def same_server():
    """Two traceroutes from one server never pair with each other."""
    hops = (
        _trace(0, "s1", "100.1.1.10", ["7.0.0.1", "100.0.0.1", "100.0.0.5"])
        + _trace(1, "s1", "100.1.1.10", ["7.0.0.2", "100.0.0.2", "100.0.0.5"])
        + _trace(2, "s2", "100.1.1.10", ["7.0.0.3", "100.0.0.1", "100.0.0.5"])
    )
    return hops, ANNOTATIONS


def first_suitable_wins():
    """A later combination can win; among several, the first ``i < j``."""
    hops = (
        # 100.1.1.10: (t0, t1) share transit, (t1, t2) is the first fit.
        _trace(0, "s1", "100.1.1.10", ["7.0.0.1", "100.0.0.1", "100.0.0.5"])
        + _trace(1, "s2", "100.1.1.10", ["7.0.0.1", "100.0.0.2", "100.0.0.5"])
        + _trace(2, "s1", "100.1.1.10", ["7.0.0.3", "100.0.0.3", "100.0.0.5"])
        # 100.1.2.30: (t3, t6) comes before (t4, t5) in i-major order.
        + _trace(3, "s1", "100.1.2.30", ["7.0.0.1", "100.0.0.1", "100.0.0.6"])
        + _trace(4, "s2", "100.1.2.30", ["7.0.0.1", "100.0.0.2", "100.0.0.6"])
        + _trace(5, "s1", "100.1.2.30", ["7.0.0.3", "100.0.0.2", "100.0.0.6"])
        + _trace(6, "s2", "100.1.2.30", ["7.0.0.4", "100.0.0.1", "100.0.0.6"])
    )
    return hops, ANNOTATIONS


def no_suitable_pair():
    """Destinations that yield nothing: shared transit, filter (b), no ASN."""
    hops = (
        _trace(0, "s1", "100.1.1.10", ["7.0.0.1", "100.0.0.1", "100.0.0.5"])
        + _trace(1, "s2", "100.1.1.10", ["7.0.0.1", "100.0.0.2", "100.0.0.5"])
        + _trace(2, "s1", "100.1.2.30",
                 [("7.0.0.2", "7.0.0.9"), "100.0.0.3", "100.0.0.6"])
        + _trace(3, "s2", "100.1.2.30", ["7.0.0.3", "100.0.0.3", "100.0.0.6"])
        + _trace(4, "s1", "100.9.9.9", ["7.0.0.4", "100.0.0.4", "100.0.0.7"])
        + _trace(5, "s2", "100.9.9.9", ["7.0.0.5", "100.0.0.4", "100.0.0.7"])
        + _trace(6, "s1", "100.1.1.20", ["7.0.0.6", "100.0.0.8", "100.0.0.9"])
        + _trace(7, "s2", "100.1.1.20", ["7.0.0.7", "100.0.0.8", "100.0.0.9"])
    )
    return hops, ANNOTATIONS


def shared_prefix_key():
    """Two destinations in one /24 and ASN append to one database key."""
    hops = (
        _trace(0, "s1", "100.1.1.20", ["7.0.0.1", "100.0.0.1", "100.0.0.5"])
        + _trace(1, "s2", "100.1.1.20", ["7.0.0.2", "100.0.0.1", "100.0.0.5"])
        + _trace(2, "s1", "100.1.2.30", ["7.0.0.3", "100.0.0.2", "100.0.0.6"])
        + _trace(3, "s2", "100.1.2.30", ["7.0.0.4", "100.0.0.2", "100.0.0.6"])
        + _trace(4, "s2", "100.1.1.10", ["7.0.0.5", "100.0.0.3", "100.0.0.7"])
        + _trace(5, "s1", "100.1.1.10", ["7.0.0.6", "100.0.0.3", "100.0.0.7"])
    )
    return hops, ANNOTATIONS


def empty():
    return [], []


def no_traceroutes():
    return [], ANNOTATIONS


CASES = {
    "fan_out": fan_out,
    "annotation_miss": annotation_miss,
    "interleaved": interleaved,
    "hop_is_destination": hop_is_destination,
    "same_server": same_server,
    "first_suitable_wins": first_suitable_wins,
    "no_suitable_pair": no_suitable_pair,
    "shared_prefix_key": shared_prefix_key,
    "empty": empty,
    "no_traceroutes": no_traceroutes,
}

#: case -> ([(key, [(server_pair, common_candidates), ...]), ...],
#:          rows_scanned, pairs_found)
EXPECTED = {'annotation_miss': ([(('100.1.1.0/24', 100),
                       [(('s1', 's3'), ('100.0.0.5',)),
                        (('s2', 's3'), ('100.0.0.5',))])],
                     14,
                     2),
 'empty': ([], 0, 0),
 'fan_out': ([(('100.1.1.0/24', 100),
               [(('s1', 's3'), ('100.0.0.5',)),
                (('s2', 's3'), ('100.0.0.5',)),
                (('s3', 's4'), ('7.0.0.3',))])],
             32,
             3),
 'first_suitable_wins': ([(('100.1.1.0/24', 100),
                           [(('s1', 's2'), ('100.0.0.5',))]),
                          (('100.1.2.0/24', 100),
                           [(('s1', 's2'),
                             ('100.0.0.1', '100.0.0.6'))])],
                         21,
                         2),
 'hop_is_destination': ([(('100.1.1.0/24', 100),
                          [(('s1', 's3'), ('100.0.0.1',)),
                           (('s2', 's4'), ('100.0.0.2',))])],
                        12,
                        2),
 'interleaved': ([(('100.1.1.0/24', 100),
                   [(('s1', 's2'), ('100.0.0.5',)),
                    (('s2', 's3'), ('100.0.0.5',)),
                    (('s1', 's3'), ('100.0.0.5',))]),
                  (('100.1.2.0/24', 100),
                   [(('s2', 's3'), ('100.0.0.4', '100.0.0.9'))])],
                 19,
                 4),
 'no_suitable_pair': ([(('100.1.1.0/24', 100),
                        [(('s1', 's2'), ('100.0.0.8', '100.0.0.9'))])],
                      24,
                      1),
 'no_traceroutes': ([], 0, 0),
 'same_server': ([(('100.1.1.0/24', 100),
                   [(('s1', 's2'), ('100.0.0.1', '100.0.0.5'))])],
                 9,
                 1),
 'shared_prefix_key': ([(('100.1.1.0/24', 100),
                         [(('s1', 's2'), ('100.0.0.1', '100.0.0.5')),
                          (('s1', 's2'), ('100.0.0.3', '100.0.0.7'))]),
                        (('100.1.2.0/24', 100),
                         [(('s1', 's2'), ('100.0.0.2', '100.0.0.6'))])],
                       18,
                       3)}


def _tables(hops, annotations, backend):
    traceroutes = make_table("traceroutes", TRACEROUTE_COLUMNS, backend)
    traceroutes.extend(hops)
    annotation_rows = make_table(
        "annotations", ("hop_ip", "asn", "country"), backend
    )
    annotation_rows.extend(
        {"hop_ip": ip, "asn": asn, "country": "ZZ"} for ip, asn in annotations
    )
    return traceroutes, annotation_rows


def build(case, backend):
    """The database and TC counters ``case`` builds on ``backend``."""
    sink = MetricsSink()
    with use_sink(sink):
        database = build_topology_from_tables(
            *_tables(*CASES[case](), backend)
        )
    return (
        database,
        sink.counters.get("mlab.tc.rows_scanned", 0),
        sink.counters.get("mlab.tc.pairs_found", 0),
    )


@pytest.mark.parametrize("backend", ["row", "columnar"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_pinned_database(case, backend):
    database, rows_scanned, pairs_found = build(case, backend)
    entries, expected_rows, expected_pairs = EXPECTED[case]
    assert list(database.entries.items()) == [
        (key, [SuitableTopology(*key, pair, common) for pair, common in found])
        for key, found in entries
    ]
    assert (rows_scanned, pairs_found) == (expected_rows, expected_pairs)


def _expected(case):
    return [
        (key, [SuitableTopology(*key, pair, common) for pair, common in found])
        for key, found in EXPECTED[case][0]
    ]


def _address(key):
    """An address inside destination ``key``'s prefix, and its ASN."""
    return key[0].split("/")[0], key[1]


@pytest.mark.parametrize("backend", ["row", "columnar"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_database_reads(case, backend):
    """``len``, ``destinations``, ``lookup`` and ``==`` on a table-built
    database agree with the pinned entries."""
    database, _, _ = build(case, backend)
    expected = _expected(case)
    assert len(database) == sum(len(found) for _, found in expected)
    assert database.destinations == [key for key, _ in expected]
    assert database.lookup("9.9.9.9", ISP) == []
    for key, found in expected:
        assert database.lookup(*_address(key)) == found
    assert database == TopologyDatabase(dict(expected))
    assert TopologyDatabase(entries=dict(expected)) == database
    if expected:
        assert database != TopologyDatabase(dict(expected[1:]))


@pytest.mark.parametrize("backend", ["row", "columnar"])
@pytest.mark.parametrize("case", sorted(case for case in CASES if EXPECTED[case][0]))
def test_invalidate_balances_counters(case, backend):
    """After an invalidation the entries lose exactly that entry, and
    the harvested counters still balance."""
    expected = _expected(case)
    sink = MetricsSink()
    with use_sink(sink):
        database = build_topology_from_tables(*_tables(*CASES[case](), backend))
        victim = expected[-1][1][0]
        assert database.invalidate(victim)
        assert not database.invalidate(victim)
        harvest_topology_database(sink, database)
    remaining = [
        (key, [entry for entry in found if entry != victim]) for key, found in expected
    ]
    assert list(database.entries.items()) == [
        (key, found) for key, found in remaining if found
    ]
    counters = sink.counters
    assert counters["mlab.tc.entries_invalidated"] == 1
    assert counters["mlab.tc.entries_total"] == len(database) == (
        counters["mlab.tc.pairs_found"] - counters["mlab.tc.entries_invalidated"]
    )
    assert sink.gauges["mlab.tc.destinations"] == len(database.destinations)


def random_case(rng):
    """Small random tables: duplicate and missing annotations, aliased
    hops, destinations on the path, interleaved traceroute rows."""
    routers = [f"{net}.0.0.{i}" for net in (7, 100, 101)
               for i in range(rng.randint(1, 5))]
    clients = [f"100.1.{rng.randint(1, 2)}.{i}" for i in range(rng.randint(1, 3))]
    annotations = [
        (ip, rng.choice([7, 100, 100, 101]))
        for ip in routers + clients
        for _ in range(rng.choice([0, 1, 1, 1, 2]))
    ]
    rng.shuffle(annotations)
    traces = []
    for tid in rng.sample(range(100), rng.randint(0, 30)):
        client = rng.choice(clients)
        hops = [rng.choice(routers + [client])
                for _ in range(rng.randint(1, 5))]
        hops = [(ip, ip if rng.random() > 0.05 else rng.choice(routers))
                for ip in hops]
        traces.append(_trace(tid, f"s{rng.randint(1, 4)}", client, hops))
    if rng.random() < 0.5:
        return [row for trace in traces for row in trace], annotations
    rows = []
    while any(traces):
        rows.append(rng.choice([t for t in traces if t]).pop(0))
    return rows, annotations


@pytest.mark.parametrize("seed", range(3))
def test_matches_the_per_row_reference(seed):
    rng = random.Random(seed)
    found = 0
    for _ in range(200):
        hops, annotations = random_case(rng)
        expected = list(reference_build(
            *_tables(hops, annotations, "row")
        ).entries.items())
        found += sum(len(entries) for _, entries in expected)
        for backend in ("row", "columnar"):
            built = build_topology_from_tables(
                *_tables(hops, annotations, backend)
            )
            for key, entries in expected:
                assert built.lookup(*_address(key)) == entries, backend
            assert list(built.entries.items()) == expected, backend
    assert found > 100  # the cases do exercise the pair search
