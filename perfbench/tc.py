"""tc-1m: topology construction over ~1M traceroute rows.

A round tiles one month of traceroutes -- collected on the pinned
1000-AS ``PolicyInternet`` as ``repro.perf.topology._tiled_tables``
does -- to :data:`COLUMNAR_ROWS` rows on the columnar backend and runs
``build_topology_from_tables``, then runs the same pipeline on the row
backend at :data:`ROW_ROWS`.  The row tile is a prefix of the columnar
one, so the row database must equal the columnar entries for the row
tile's destinations.  The run seed drives the traceroute collection
(hop RTTs); the AS graph and internet stay pinned.  Besides rows per
second on each backend, a run reports the median seconds
``build_topology_from_tables`` takes on the columnar tile, tables
excluded.
"""

import statistics
import sys
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from repro import inet
from repro.inet import PolicyInternet
from repro.inet.coltable import ColumnarTable
from repro.mlab import tables, traceroute
from repro.mlab.annotations import AnnotationDatabase
from repro.mlab.topology_construction import TopologyDatabase, build_topology_from_tables
from repro.obs import MetricsSink, use_sink

import checks
from common import (
    NormalizedClock,
    Outcome,
    counter,
    derive_seeds,
    median_setup,
    run_rounds,
    spans_path,
    timed,
)
from spans import SpanRecorder, inclusive, own

COLUMNAR_ROWS = 1_000_000
ROW_ROWS = 200_000

GRAPH_SEED = 0
GRAPH_ASES = 1000
CLIENT_ISPS = 25
CLIENTS_PER_ISP = 4

#: Octets a tile copy may write into client IPs (200.x holds servers).
_OCTETS = tuple(v for v in range(1, 255) if v != 200)


@dataclass
class Month:
    """One collected month: the hop rows every tile copies."""

    rows: list
    n_records: int
    annotations: object
    clients: list  # (ip, asn)


def collect(seed):
    graph = inet.generate_as_graph(GRAPH_SEED, n_ases=GRAPH_ASES)
    internet = PolicyInternet(
        graph=graph,
        seed=GRAPH_SEED,
        n_client_isps=CLIENT_ISPS,
        clients_per_isp=CLIENTS_PER_ISP,
    )
    rng = np.random.default_rng(derive_seeds(seed, 1, salt=0)[0])
    records = traceroute.collect_month(
        internet, rng, tests_per_client=len(internet.servers)
    )
    return Month(
        rows=list(tables.traceroute_table(records, backend="row")),
        n_records=len(records),
        annotations=AnnotationDatabase(internet),
        clients=[(client.ip, client.asn) for client in internet.clients],
    )


def tile_tables(month, target_rows, backend):
    """Traceroute and annotation tables of >= ``target_rows`` hop rows.

    Each copy of the month rewrites the client IPs' first octet, so
    every copy adds distinct destinations behind the shared backbone.
    """
    copies = -(-target_rows // len(month.rows))
    if copies > len(_OCTETS):
        raise ValueError(f"{target_rows} rows need more than {len(_OCTETS)} copies")
    octets = _OCTETS[:copies]
    client_ips = {ip for ip, _asn in month.clients}

    def rewrite(ip, octet):
        return f"{octet}.{ip.split('.', 1)[1]}" if ip in client_ips else ip

    hops = tables.make_table("traceroutes", tables.TRACEROUTE_COLUMNS, backend=backend)
    for copy_index, octet in enumerate(octets):
        shift = copy_index * month.n_records
        hops.extend(
            {
                **row,
                "traceroute_id": row["traceroute_id"] + shift,
                "destination_ip": rewrite(row["destination_ip"], octet),
                "hop_ip": rewrite(row["hop_ip"], octet),
                "egress_ip": rewrite(row["egress_ip"], octet),
            }
            for row in month.rows
        )
    annotations = tables.annotation_table(month.annotations, backend=backend)
    annotations.extend(
        {"hop_ip": f"{octet}.{ip.split('.', 1)[1]}", "asn": asn, "country": "ZZ"}
        for octet in octets
        for ip, asn in month.clients
    )
    hops.materialize()
    annotations.materialize()
    return hops, annotations


def _pass(month, rows, backend, clock=None):
    """Tables, then the database built from them; ``(database, rows, TC seconds)``."""
    # Module-global lookups, so the traced run's wrappers take effect.
    hops, annotations = tile_tables(month, rows, backend)
    database, tc_seconds = (clock.time if clock else timed)(
        build_topology_from_tables, hops, annotations
    )
    return database, len(hops), tc_seconds


def shared_tile(database, month, rows):
    """The entries of ``database`` whose destinations a ``rows`` tile holds.

    A smaller tile is a prefix of a larger one -- the same copies with
    the same octets -- and TC pairs servers per destination, so this is
    the database the smaller tile builds.
    """
    octets = {str(octet) for octet in _OCTETS[:-(-rows // len(month.rows))]}
    return TopologyDatabase({
        key: entries for key, entries in database.entries.items()
        if key[0].split(".", 1)[0] in octets
    })


def _round(month, sizes, walls, problems, recorder=None, sinks=None, clock=None):
    """The columnar tile, then the row tile, which must agree on shared rows.

    ``walls`` gets ``{part: (rows, seconds, TC seconds)}``; seconds are
    normalized when a ``clock`` is given.
    """
    columnar_rows, row_rows = sizes
    databases, times = {}, {}
    for part, rows in (("columnar", columnar_rows), ("row", row_rows)):
        if recorder is not None:
            recorder.op = part
        sink = nullcontext() if sinks is None else use_sink(sinks.setdefault(part, MetricsSink()))
        with sink:
            (databases[part], n_rows, tc_seconds), wall = (clock.time if clock else timed)(
                _pass, month, rows, part, clock
            )
        times[part] = (n_rows, wall, tc_seconds)
    walls.append(times)
    shared = shared_tile(databases["columnar"], month, row_rows)
    problems += checks.database_problems(databases["row"], shared)
    return databases


def run(seed, seconds, trace, sizes=(COLUMNAR_ROWS, ROW_ROWS)):
    month, setup_s = median_setup(collect, seed)
    if trace:
        return _traced(seed, month, sizes)
    walls, problems = [], []
    with NormalizedClock() as clock:
        run_rounds(seconds, lambda _index: _round(month, sizes, walls, problems, clock=clock))

    def rate(part):
        return sum(w[part][0] for w in walls) / sum(w[part][1] for w in walls)

    return Outcome(
        {
            "setup_s": setup_s,
            "ops_per_s": rate("columnar"),
            "op_p50_s": statistics.median(w["columnar"][2] for w in walls),
            "alt_ops_per_s": rate("row"),
        },
        attempted=2 * len(walls),
        failed=len(problems),
        problems=problems,
    )


def _traced(seed, month, sizes):
    """One untraced round, then the set-up and the same round traced."""
    walls, problems = [], []
    recorder = SpanRecorder()
    sinks = {}
    with NormalizedClock() as clock, recorder:
        plain, plain_time = clock.time(_round, month, sizes, walls, problems)
        recorder.wrap(inet, "generate_as_graph", "inet.graph")
        recorder.wrap(PolicyInternet, "__init__", "inet.internet")
        recorder.wrap(traceroute, "collect_month", "mlab.collect")
        recorder.op = "setup"
        month = collect(seed)
        this = sys.modules[__name__]
        recorder.wrap(this, "tile_tables", "tables.build")
        recorder.wrap(this, "build_topology_from_tables", "tc.build")
        recorder.wrap(tables.Table, "join_table", "tables.join")
        recorder.wrap(ColumnarTable, "join_table", "tables.join")
        results, traced_time = clock.time(_round, month, sizes, walls, problems, recorder, sinks)
    recorder.write(spans_path("tc-1m"))
    problems += checks.database_problems(plain["columnar"], results["columnar"])

    setup_totals, _ = recorder.reduce(lambda op: op == "setup")
    columnar, _ = recorder.reduce(lambda op: op == "columnar")
    row, _ = recorder.reduce(lambda op: op == "row")
    _all, top = recorder.reduce(lambda op: op != "setup")

    snapshot = sinks["columnar"].snapshot()
    return Outcome(
        {
            "inet.graph_s": inclusive(setup_totals, "inet.graph"),
            "inet.internet_s": inclusive(setup_totals, "inet.internet"),
            "mlab.collect_s": inclusive(setup_totals, "mlab.collect"),
            "tables.build_s": inclusive(columnar, "tables.build"),
            "tables.join_s": inclusive(columnar, "tables.join"),
            "tc.pairsearch_s": own(columnar, "tc.build"),
            "tables.row_build_s": inclusive(row, "tables.build"),
            "tables.row_join_s": inclusive(row, "tables.join"),
            "tc.row_pairsearch_s": own(row, "tc.build"),
            "mlab.tc.rows_scanned": counter(snapshot, "mlab.tc.rows_scanned"),
            "mlab.tc.pairs_found": counter(snapshot, "mlab.tc.pairs_found"),
            "tc.entries": len(results["columnar"]),
            "trace.coverage": top / clock.last_wall,
            "trace.overhead": traced_time / plain_time - 1.0,
        },
        attempted=4,
        failed=len(problems),
        problems=problems,
    )
