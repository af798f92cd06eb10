"""Claim: topology construction is exact, fast, and survives route dynamics.

Five legs over the pinned 1000-AS policy-routed internet:

- ``graph``: seeded CAIDA-style graph generation is deterministic
  (two generations, one fingerprint);
- ``tc``: traceroute collection plus the columnar table pipeline,
  scored by the ground-truth oracle -- precision >=
  :data:`MIN_PRECISION`, recall >= :data:`MIN_RECALL`, and the TC
  counters balance (entries == pairs found - invalidated);
- ``columnar``: the BigQuery-shaped join+filter over >= 1M tiled
  traceroute rows on the row-dict and columnar backends -- both build
  the identical topology database, and the columnar join+filter is
  >= :data:`MIN_JOIN_SPEEDUP` x faster (:data:`MIN_JOIN_SPEEDUP_QUICK`
  at the ~124k-row quick scale, where constant costs compress the
  ratio);
- ``dynamics``: a scripted failure/recovery/flip schedule with the
  coordinator testing mid-window under ``preflight_verify``.  Stale
  entries must be detected, at least one test must complete, no
  completed test may use a pair the oracle calls unsuitable, and TC
  precision must hold after healing;
- ``coverage``: Section 3.3's statistics over a synthetic M-Lab
  traceroute month on the pinned graph, with ICMP blocking, aliasing
  and annotation misses tuned to the paper's regime (paper: 52% of
  clients have a complete traceroute, 74% of those a suitable
  topology).
"""

from collections import Counter

import numpy as np

from repro import obs
from repro.claims import timed

#: Pinned workload shape: the acceptance gate runs on this graph.
GRAPH_SEED = 0
GRAPH_ASES = 1000
TC_CLIENT_ISPS = 12
TC_CLIENTS_PER_ISP = 3

#: The columnar workload tiles a smaller, wider internet (more client
#: ISPs -> more distinct destinations) up to the target row count.
COL_CLIENT_ISPS = 25
COL_CLIENTS_PER_ISP = 4
COL_TARGET_ROWS = 1_000_000
COL_TARGET_ROWS_QUICK = 120_000

MIN_PRECISION = 1.0
MIN_RECALL = 0.9
MIN_JOIN_SPEEDUP = 10.0
MIN_JOIN_SPEEDUP_QUICK = 4.0
MAX_WRONG_VERDICTS = 0
COMPLETE_BAND = (0.2, 0.95)
MIN_SUITABLE = 0.4


def _make_internet(graph, n_client_isps, clients_per_isp):
    from repro.inet import PolicyInternet

    return PolicyInternet(
        graph=graph,
        seed=GRAPH_SEED,
        n_client_isps=n_client_isps,
        clients_per_isp=clients_per_isp,
    )


def _collect(internet, seed=5):
    from repro.mlab.traceroute import collect_month

    rng = np.random.default_rng(seed)
    return collect_month(internet, rng, tests_per_client=len(internet.servers))


def measure_graph():
    from repro.inet import generate_as_graph

    graph = generate_as_graph(GRAPH_SEED, n_ases=GRAPH_ASES)
    again = generate_as_graph(GRAPH_SEED, n_ases=GRAPH_ASES)
    return graph, {
        "ases": len(graph.asns),
        "edges": graph.n_edges,
        "fingerprint": graph.fingerprint(),
        "deterministic": graph.fingerprint() == again.fingerprint(),
    }


def measure_tc(graph):
    """TC end to end on the pinned internet; oracle-scored."""
    from repro.inet import TopologyOracle
    from repro.mlab.annotations import AnnotationDatabase
    from repro.mlab.topology_construction import build_topology

    internet = _make_internet(graph, TC_CLIENT_ISPS, TC_CLIENTS_PER_ISP)
    annotations = AnnotationDatabase(internet)
    records = _collect(internet)

    sink = obs.MetricsSink()
    with obs.use_sink(sink):
        database = build_topology(records, annotations)
        obs.harvest_topology_database(sink, database)
    counters = sink.snapshot()["counters"]
    double_entry_ok = counters.get("mlab.tc.entries_total", 0) == (
        counters.get("mlab.tc.pairs_found", 0)
        - counters.get("mlab.tc.entries_invalidated", 0)
    )

    score = TopologyOracle(internet).score(database)
    return internet, annotations, database, {
        "clients": len(internet.clients),
        "servers": len(internet.servers),
        "traceroutes": len(records),
        "rows_scanned": counters.get("mlab.tc.rows_scanned", 0),
        "entries": len(database),
        "precision": score["precision"],
        "recall": score["recall"],
        "double_entry_ok": bool(double_entry_ok),
    }


def tiled_tables(graph, target_rows, backend):
    """>= ``target_rows`` synthetic traceroute rows on ``backend``.

    Tiles one collected month, rewriting each copy's client IPs (first
    octet) so every copy is a distinct set of destinations -- same
    shape BigQuery sees: many clients, shared backbone.
    """
    from repro.mlab.annotations import AnnotationDatabase
    from repro.mlab.tables import (
        TRACEROUTE_COLUMNS,
        annotation_table,
        make_table,
        traceroute_table,
    )

    internet = _make_internet(graph, COL_CLIENT_ISPS, COL_CLIENTS_PER_ISP)
    annotations = AnnotationDatabase(internet)
    records = _collect(internet)
    base_rows = list(traceroute_table(records, backend="row"))
    client_ips = {c.ip for c in internet.clients}
    copies = max(1, -(-target_rows // len(base_rows)))

    octets = [v for v in range(1, 255) if v != 200][:copies]
    if len(octets) < copies:
        raise ValueError("target_rows too large for the octet rewrite space")

    def rewrite(ip, octet):
        return f"{octet}.{ip.split('.', 1)[1]}" if ip in client_ips else ip

    table = make_table("traceroutes", TRACEROUTE_COLUMNS, backend=backend)
    n_records = len(records)
    for copy_index, octet in enumerate(octets):
        shift = copy_index * n_records
        table.extend(
            {
                **row,
                "traceroute_id": row["traceroute_id"] + shift,
                "destination_ip": rewrite(row["destination_ip"], octet),
                "hop_ip": rewrite(row["hop_ip"], octet),
                "egress_ip": rewrite(row["egress_ip"], octet),
            }
            for row in base_rows
        )

    ann = annotation_table(annotations, backend=backend)
    ann.extend(
        {"hop_ip": f"{octet}.{c.ip.split('.', 1)[1]}", "asn": c.asn, "country": "ZZ"}
        for octet in octets
        for c in internet.clients
    )
    table.materialize()
    ann.materialize()
    return table, ann


def _join_filter(traceroutes, annotations):
    """The TC merge: two left joins plus the link-consistency filter."""
    annotated = traceroutes.join_table(annotations, on="hop_ip", how="left")
    destination_side = annotations.renamed(
        {
            "hop_ip": "destination_ip",
            "asn": "destination_asn",
            "country": "destination_country",
        }
    )
    merged = annotated.join_table(destination_side, on="destination_ip", how="left")
    consistent = merged.where_columns_equal("hop_ip", "egress_ip")
    return len(merged), len(consistent)


def measure_columnar(graph, target_rows):
    from repro.mlab.topology_construction import build_topology_from_tables

    backends = {}
    databases = {}
    for backend in ("row", "columnar"):
        tables = tiled_tables(graph, target_rows, backend)
        (merged, consistent), join_wall, _ = timed(lambda: _join_filter(*tables))
        databases[backend] = build_topology_from_tables(*tables)
        backends[backend] = {
            "rows": len(tables[0]),
            "merged_rows": merged,
            "consistent_rows": consistent,
            "join_filter_wall_s": join_wall,
            "entries": len(databases[backend]),
        }
        del tables

    row_db, col_db = databases["row"], databases["columnar"]
    # Key order is part of TC's contract, so compare the items in order.
    identical = list(row_db.entries.items()) == list(col_db.entries.items())
    columnar_wall = backends["columnar"]["join_filter_wall_s"]
    return {
        "target_rows": target_rows,
        "backends": backends,
        "join_speedup": (
            backends["row"]["join_filter_wall_s"] / columnar_wall if columnar_wall else 0.0
        ),
        "identical_entries": bool(identical),
    }


def _witness(internet, database, oracle):
    """The client to test alongside an event's touched clients.

    Among clients with at least one entry the oracle still calls
    suitable, the one with the most stale entries (first in internet
    order on ties): preflight must drop its stale pairs and the test
    must then complete on a surviving one.  None if no client has a
    suitable entry left.
    """
    stale = Counter(client for _entry, client in oracle.stale_entries(database))
    witness = None
    for client in internet.clients:
        suitable = len(database.lookup(client.ip, client.asn)) - stale[client.name]
        if suitable > 0 and (witness is None or stale[client.name] > stale[witness]):
            witness = client.name
    return witness


def measure_dynamics(internet, annotations, database, quick):
    """Scripted route dynamics + the coordinator under preflight."""
    from repro.core.coordinator import CoordinationStatus, WeHeYCoordinator
    from repro.experiments.scenarios import ScenarioConfig
    from repro.faults import RetryPolicy
    from repro.inet import RouteDynamics, TopologyOracle, generate_schedule
    from repro.mlab.verification import TopologyVerifier

    oracle = TopologyOracle(internet)
    events = generate_schedule(
        internet.graph,
        GRAPH_SEED + 1,
        n_failures=1 if quick else 2,
        n_flips=0 if quick else 1,
        targets=internet.isp_asns,
    )
    internet.attach_dynamics(RouteDynamics(events))

    rng = np.random.default_rng(7)
    scenario = ScenarioConfig(
        app="zoom",
        limiter="common",
        duration=10.0 if quick else 20.0,
        fidelity="hybrid",
    )
    verifier = TopologyVerifier(internet, annotations, rng)
    tdiff = np.random.default_rng(9).normal(0.0, 0.08, 80)
    coordinator = WeHeYCoordinator(
        internet,
        database,
        verifier,
        scenario,
        rng,
        tdiff,
        retry_policy=RetryPolicy(max_attempts=3, base_backoff_s=0.0),
        preflight_verify=True,
    )

    stale_detected = 0
    tests_run = 0
    completed = 0
    wrong_verdicts = 0
    max_clients = 2 if quick else 4
    entries_before = len(database)
    for event in events:
        internet.advance_to(event.time + 1e-6)
        stale = oracle.stale_entries(database)
        stale_detected += len(stale)
        # Test the clients the event touched -- mid-window, so
        # preflight verification sees the stale routes -- then one
        # witness that still has a suitable pair.
        client_names = list(dict.fromkeys(client for _entry, client in stale))
        client_names = client_names[:max_clients]
        witness = _witness(internet, database, oracle)
        if witness is not None and witness not in client_names:
            client_names.append(witness)
        for client_name in client_names:
            report = coordinator.run_test(client_name)
            tests_run += 1
            if report.status is CoordinationStatus.COMPLETED:
                completed += 1
                wrong_verdicts += not oracle.pair_suitable(
                    report.server_pair[0], report.server_pair[1], client_name
                )
    horizon = max(e.time + e.convergence_s for e in events) + 1.0
    internet.advance_to(horizon)
    healed_by_coordinator = (
        coordinator.telemetry["preflight_stale"]
        + coordinator.telemetry["topology_invalidated"]
    )
    # Heal whatever mid-window testing did not touch.
    residual = 0
    for entry, _client in oracle.stale_entries(database):
        residual += bool(database.invalidate(entry))
    post = oracle.score(database)
    return {
        "events": len(events),
        "path_changes": internet.telemetry["path_changes"],
        "stale_detected": stale_detected,
        "healed_by_coordinator": healed_by_coordinator,
        "healed_residual": residual,
        "entries_before": entries_before,
        "entries_after": len(database),
        "tests_run": tests_run,
        "completed": completed,
        "wrong_verdicts": wrong_verdicts,
        "post_precision": post["precision"],
        "post_recall": post["recall"],
        "converged": bool(internet.converged),
    }


def measure_coverage():
    """Section 3.3's coverage pipeline over a fresh pinned-graph internet."""
    from repro.inet import PolicyInternet
    from repro.mlab.annotations import AnnotationDatabase
    from repro.mlab.topology_construction import topology_coverage
    from repro.mlab.traceroute import collect_month

    rng = np.random.default_rng(77)
    internet = PolicyInternet(
        seed=GRAPH_SEED, n_ases=GRAPH_ASES, rng=rng,
        n_sites=5, servers_per_site=2, n_client_isps=12, clients_per_isp=8,
        icmp_block_fraction=0.35, alias_fraction=0.25,
    )
    annotations = AnnotationDatabase(internet, rng=rng, miss_rate=0.02)
    records = collect_month(internet, rng)
    database, stats = topology_coverage(records, annotations)
    return {
        "traceroutes": len(records),
        "complete_fraction": stats["complete_fraction"],
        "suitable_fraction": stats["suitable_fraction"],
        "entries": len(database),
    }


def measure(quick):
    graph, graph_report = measure_graph()
    internet, annotations, database, tc = measure_tc(graph)
    columnar = measure_columnar(
        graph, COL_TARGET_ROWS_QUICK if quick else COL_TARGET_ROWS
    )
    return {
        "quick": bool(quick),
        "graph": graph_report,
        "tc": tc,
        "columnar": columnar,
        "dynamics": measure_dynamics(internet, annotations, database, quick),
        "coverage": measure_coverage(),
    }


def failures(report):
    failures = []
    tc = report["tc"]
    if tc["precision"] < MIN_PRECISION:
        failures.append(f"tc precision {tc['precision']:.3f} < {MIN_PRECISION}")
    if tc["recall"] < MIN_RECALL:
        failures.append(f"tc recall {tc['recall']:.3f} < {MIN_RECALL}")
    if not tc["double_entry_ok"]:
        failures.append("tc counter double-entry check failed")
    if not report["graph"]["deterministic"]:
        failures.append("graph generation is not deterministic")
    columnar = report["columnar"]
    if not columnar["identical_entries"]:
        failures.append("row and columnar backends disagree on TC entries")
    min_speedup = MIN_JOIN_SPEEDUP_QUICK if report["quick"] else MIN_JOIN_SPEEDUP
    if columnar["join_speedup"] < min_speedup:
        failures.append(
            f"join speedup {columnar['join_speedup']:.2f}x < {min_speedup}x"
        )
    dynamics = report["dynamics"]
    if dynamics["wrong_verdicts"] > MAX_WRONG_VERDICTS:
        failures.append(
            f"{dynamics['wrong_verdicts']} wrong-verdict pair selections "
            f"(max {MAX_WRONG_VERDICTS})"
        )
    if dynamics["stale_detected"] == 0:
        failures.append("dynamics produced no stale entries to heal")
    if dynamics["completed"] == 0:
        failures.append("dynamics completed no test")
    if dynamics["post_precision"] < MIN_PRECISION:
        failures.append(
            f"post-dynamics precision {dynamics['post_precision']:.3f} "
            f"< {MIN_PRECISION}"
        )
    complete, suitable, entries = (
        report["coverage"][key] for key in ("complete_fraction", "suitable_fraction", "entries")
    )
    if not COMPLETE_BAND[0] < complete < COMPLETE_BAND[1]:
        failures.append(f"coverage complete fraction {complete:.2f} outside {COMPLETE_BAND}")
    if suitable <= MIN_SUITABLE:
        failures.append(f"coverage suitable fraction {suitable:.2f} <= {MIN_SUITABLE}")
    if not entries:
        failures.append("coverage built an empty topology database")
    return failures
