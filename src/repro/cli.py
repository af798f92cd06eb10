"""Command-line interface.

Three subcommands mirror how the system is used:

- ``localize`` -- run one end-to-end WeHeY test on a simulated scenario
  and print the localization report;
- ``topology`` -- build a policy-routed synthetic internet
  (:class:`repro.inet.PolicyInternet`), run topology construction, and
  print the coverage statistics and the ground-truth oracle's score;
- ``sweep`` -- run an FN or FP sweep over seeds for a scenario cell.

Examples::

    python -m repro.cli localize --app netflix --limiter common
    python -m repro.cli localize --app zoom --limiter perflow --merge-flows
    python -m repro.cli topology --isps 8 --clients 6
    python -m repro.cli topology --ases 1000 --dynamics-events 2
    python -m repro.cli sweep --limiter noncommon --seeds 5 --jobs 4
    python -m repro.cli sweep --seeds 8 --store .repro-store --resume --json
    python -m repro.cli sweep --seeds 5 --metrics metrics.jsonl
    python -m repro.cli sweep --shaper red --shaper-params max_p=0.2 --seeds 3
    python -m repro.cli qdisc --build
"""

import argparse
import dataclasses
import sys

import numpy as np

from repro.core.localizer import WeHeYLocalizer
from repro.core.loss_correlation import LossTrendCorrelation
from repro.experiments.runner import NetsimReplayService
from repro.faults import FaultInjector, ReplayAbortedError
from repro.experiments.scenarios import ScenarioConfig
from repro.experiments.wild import default_tdiff
from repro.netsim.topology import FIDELITIES
from repro.wehe.apps import make_trace
from repro.wehe.traces import bit_invert


_FLAGGED = [field for field in dataclasses.fields(ScenarioConfig) if field.metadata["cli"]]


def _add_scenario_arguments(parser):
    for field in _FLAGGED:
        flag, help_text, *metavar = field.metadata["cli"]
        domain = field.metadata["domain"]
        parser.add_argument(
            flag, type=domain.type, help=help_text, metavar=metavar[0] if metavar else None,
            choices=domain.choices and ["none" if c is None else c for c in domain.choices],
            # --shaper-params stays text until _scenario_from parses it.
            default=None if field.name == "shaper_params" else field.default,
        )


def _parse_shaper_params(text):
    """``'a=1,b=true,c=x'`` -> ``(("a", 1), ("b", True), ("c", "x"))``."""
    params = []
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        if "=" not in item:
            raise ValueError(
                f"bad --shaper-params item {item!r} (expected KEY=VALUE)"
            )
        key, raw = (part.strip() for part in item.split("=", 1))
        if raw.lower() in ("true", "false"):
            value = raw.lower() == "true"
        else:
            try:
                value = int(raw)
            except ValueError:
                try:
                    value = float(raw)
                except ValueError:
                    value = raw
        params.append((key, value))
    return tuple(params)


def _scenario_from(args):
    knobs = {
        field.name: getattr(args, field.metadata["cli"][0][2:].replace("-", "_"))
        for field in _FLAGGED
    }
    if knobs["limiter"] == "none":
        knobs["limiter"] = None
    knobs["shaper_params"] = _parse_shaper_params(knobs["shaper_params"] or "")
    return ScenarioConfig(**knobs)


def cmd_localize(args):
    injector = None
    try:
        config = _scenario_from(args)
        if args.max_retries < 0:
            raise ValueError(f"--max-retries must be >= 0, got {args.max_retries}")
        if args.fault_profile and args.fault_profile != "none":
            injector = FaultInjector.from_spec(args.fault_profile, seed=args.seed)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    localizer = WeHeYLocalizer(
        np.random.default_rng(args.seed),
        default_tdiff(),
        multipath_aware=config.multipath >= 2,
    )
    attempts_allowed = args.max_retries + 1
    report = None
    for attempt in range(attempts_allowed):
        service = NetsimReplayService(
            config,
            entropy=attempt,
            merge_flows=args.merge_flows,
            fault_injector=injector,
        )
        trace = make_trace(config.app, config.duration, service._trace_rng)
        try:
            candidate = localizer.localize(service, trace, bit_invert(trace))
        except ReplayAbortedError as exc:
            print(f"attempt {attempt + 1}/{attempts_allowed}: replay aborted ({exc})")
            continue
        if candidate.invalid and attempt + 1 < attempts_allowed:
            print(
                f"attempt {attempt + 1}/{attempts_allowed}: "
                f"unusable measurements ({candidate.reason_code}); retrying"
            )
            continue
        report = candidate
        break
    if injector is not None and injector.fires_by_site:
        fired = ", ".join(
            f"{site} x{count}"
            for site, count in sorted(injector.fires_by_site.items())
        )
        print(f"faults    : {fired}")
    if report is None:
        print(f"outcome   : failed (all {attempts_allowed} attempts aborted)")
        return 2
    print(f"outcome   : {report.outcome.value}")
    print(f"mechanism : {report.mechanism.value}")
    print(f"reason    : {report.reason}")
    if report.reason_code:
        print(f"code      : {report.reason_code}")
    if report.throughput_result is not None:
        tr = report.throughput_result
        print(f"X / Y     : {tr.x_mean_bps/1e6:.2f} / {tr.y_mean_bps/1e6:.2f} Mb/s "
              f"(MWU p = {tr.pvalue:.3g})")
    if report.loss_result is not None:
        lr = report.loss_result
        print(f"loss corr : {lr.n_correlated}/{lr.n_intervals_tested} interval sizes")
    return 0 if report.localized else 1


def cmd_topology(args):
    from repro.inet import PolicyInternet, RouteDynamics, TopologyOracle, generate_schedule
    from repro.mlab.annotations import AnnotationDatabase
    from repro.mlab.topology_construction import topology_coverage
    from repro.mlab.traceroute import collect_month

    events = ()
    try:
        internet = PolicyInternet(
            seed=args.seed,
            n_ases=args.ases,
            n_client_isps=args.isps,
            clients_per_isp=args.clients,
        )
        if args.dynamics_events:
            events = generate_schedule(
                internet.graph,
                args.seed + 1,
                n_failures=args.dynamics_events,
                n_flips=1,
                targets=internet.isp_asns,
            )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    rng = np.random.default_rng(args.seed)
    records = collect_month(internet, rng, tests_per_client=len(internet.servers))
    database, stats = topology_coverage(records, AnnotationDatabase(internet))
    print(f"AS graph              : {len(internet.graph.asns)} ASes, "
          f"{internet.graph.n_edges} edges")
    print(f"traceroutes           : {len(records)}")
    print(f"complete fraction     : {stats['complete_fraction']:.0%}")
    print(f"suitable fraction     : {stats['suitable_fraction']:.0%}")
    print(f"topology-db entries   : {len(database)}")

    oracle = TopologyOracle(internet)
    score = oracle.score(database)
    print(f"oracle precision      : {score['precision']:.3f}")
    print(f"oracle recall         : {score['recall']:.3f}")

    if not events:
        return 0

    internet.attach_dynamics(RouteDynamics(events))
    detected = healed = 0
    for event in events:
        internet.advance_to(event.time + 1e-6)
        for entry, _client in oracle.stale_entries(database):
            detected += 1
            healed += bool(database.invalidate(entry))
    horizon = max(e.time + e.convergence_s for e in events) + 1.0
    internet.advance_to(horizon)
    post = oracle.score(database)
    print(f"dynamics events       : {internet.telemetry['events_applied']}")
    print(f"path changes          : {internet.telemetry['path_changes']}")
    print(f"stale entries healed  : {healed}/{detected}")
    print(f"post-dynamics precision: {post['precision']:.3f}")
    print(f"post-dynamics recall  : {post['recall']:.3f}")
    return 0


def _print_failure_table(failures, stream):
    """The quarantined-cell report (stderr; stdout stays byte-clean)."""
    print(f"quarantined cells: {len(failures)}", file=stream)
    print(f"{'idx':>5}  {'kind':<12} {'attempts':>8} {'elapsed':>9}  error",
          file=stream)
    for failure in failures:
        print(
            f"{failure.index:>5}  {failure.kind:<12} {failure.attempts:>8}"
            f" {failure.elapsed:>8.2f}s  {failure.error}",
            file=stream,
        )


#: ``repro sweep`` exit code when cells were quarantined: distinct from
#: misuse (2) and from a localization miss (1) so scripts can branch.
EXIT_QUARANTINED = 3

#: Exit code for a drained (SIGINT/SIGTERM) sweep: 128 + SIGINT.
EXIT_INTERRUPTED = 130


def cmd_sweep(args):
    from repro.api import SweepRequest, run_sweep
    from repro.experiments.scenarios import seed_sweep
    from repro.parallel import CellFailure, SweepCellError

    detector = {"loss_trend": LossTrendCorrelation()}
    common_exists = args.limiter in ("common", "perflow")
    fault_profile = (
        args.fault_profile
        if getattr(args, "fault_profile", "none") not in (None, "none")
        else None
    )
    if (args.resume or args.no_cache) and not args.store:
        print("--resume/--no-cache require --store DIR", file=sys.stderr)
        return 2
    # argparse: flag absent -> None (off); bare --metrics -> "" (collect
    # in-memory, print the table); --metrics PATH -> also export JSONL.
    metrics = None
    if args.metrics is not None:
        metrics = args.metrics if args.metrics else True
    try:
        request = SweepRequest.detection(
            seed_sweep(_scenario_from(args), range(args.seeds)),
            detectors=detector,
            fault_profile=fault_profile,
            jobs=args.jobs,
            no_cache=args.no_cache,
            metrics=metrics,
            cell_timeout=args.cell_timeout,
            max_cell_retries=args.max_cell_retries,
            strict=args.strict,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    store = None
    if args.store:
        from repro.store import ExperimentStore

        store = ExperimentStore(args.store)
        request = dataclasses.replace(request, store=store)
    try:
        result = run_sweep(request)
    except SweepCellError as exc:
        # --strict: the first quarantine-worthy cell aborts the sweep.
        print(f"sweep aborted (--strict): {exc}", file=sys.stderr)
        return 1
    records = result.results
    # Human-readable summary goes to stderr when the record stream owns
    # stdout, so `repro sweep --json > records.jsonl` stays clean.
    info = sys.stderr if args.json else sys.stdout
    if args.json:
        import json

        from repro.store import record_line

        for record in records:
            if record is None:  # interrupted before this cell ran
                continue
            if isinstance(record, CellFailure):
                # Failures stay in-stream as machine-readable records,
                # so `--json > records.jsonl` keeps one line per cell.
                print(json.dumps(record.as_dict(), sort_keys=True,
                                 separators=(",", ":")))
                continue
            print(record_line(record))
    bad = 0
    scored = 0
    for record in records:
        if record is None or isinstance(record, CellFailure):
            continue
        seed = record.config.seed
        if record.aborted:
            print(f"seed={seed} aborted (fault injection)", file=info)
            continue
        detected = record.verdicts["loss_trend"]
        wrong = (not detected) if common_exists else detected
        bad += wrong
        scored += 1
        kind = ("FN" if common_exists else "FP") if wrong else "ok"
        print(f"seed={seed} detected={detected} loss="
              f"{record.loss_rate_1:.3f}/{record.loss_rate_2:.3f} [{kind}]",
              file=info)
    label = "FN" if common_exists else "FP"
    print(f"{label} rate: {bad}/{scored}", file=info)
    if store is not None:
        print(f"cache: {result.hits} hits / {result.misses} misses "
              f"over {result.cells} cells (store {store.root})", file=info)
    if result.failures:
        _print_failure_table(result.failures, sys.stderr)
    if result.interrupted:
        completed = sum(record is not None for record in records)
        print(f"sweep interrupted: {completed}/{len(records)} cells completed"
              + (" (partial results checkpointed)" if store is not None else ""),
              file=sys.stderr)
    if result.metrics is not None:
        from repro.obs import summary_table

        # Metrics always go to stderr so `--json > records.jsonl` and
        # byte-comparisons of the record stream stay clean.
        print(summary_table(result.metrics), file=sys.stderr)
        if isinstance(metrics, str):
            print(f"metrics written to {metrics}", file=sys.stderr)
    if result.interrupted:
        return EXIT_INTERRUPTED
    if result.failures:
        return EXIT_QUARANTINED
    return 0


def cmd_qdisc(args):
    """List registered qdisc mechanisms; ``--build`` smoke-builds each."""
    from repro.netsim.qdisc import (
        make_qdisc,
        qdisc_spec,
        registered_qdiscs,
        supports_fidelity,
    )

    names = registered_qdiscs()
    print(f"{'name':<12} {'fidelities':<14} {'seeded':<7} description")
    for name in names:
        spec = qdisc_spec(name)
        fidelities = ",".join(
            fid for fid in FIDELITIES if supports_fidelity(name, fid)
        )
        seeded = "yes" if spec.seeded else "no"
        print(f"{name:<12} {fidelities:<14} {seeded:<7} {spec.doc}")
    if not args.build:
        return 0
    failures = 0
    for name in names:
        for fidelity in FIDELITIES:
            if not supports_fidelity(name, fidelity):
                continue
            kwargs = (
                {"capacity_bytes": 100_000}
                if name == "droptail"
                else {"rate_bps": 2e6}
            )
            try:
                qdisc = make_qdisc(name, fidelity=fidelity, **kwargs)
                ok = (
                    len(qdisc) == 0
                    and qdisc.backlog_bytes == 0
                    and callable(qdisc.enqueue)
                    and callable(qdisc.dequeue)
                )
            except Exception as exc:  # smoke test: any failure is a report
                print(f"build {name}/{fidelity}: FAILED ({exc})",
                      file=sys.stderr)
                failures += 1
                continue
            if not ok:
                print(f"build {name}/{fidelity}: FAILED (bad empty state)",
                      file=sys.stderr)
                failures += 1
            else:
                print(f"build {name}/{fidelity}: ok")
    return 1 if failures else 0


def cmd_serve(args):
    import asyncio

    from repro.service import (
        ServiceConfig,
        ServiceCore,
        SweepEngine,
        SyntheticEngine,
        serve,
    )

    try:
        config = ServiceConfig(
            max_queue=args.max_queue, tenant_rate=args.tenant_rate
        )
        if args.synthetic:
            engine = SyntheticEngine(
                mean_service_s=args.synthetic_service_s, realtime=True
            )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    store = None
    if args.store:
        from repro.store import ExperimentStore

        store = ExperimentStore(args.store)
    core = ServiceCore(config, store=store)
    if not args.synthetic:
        engine = SweepEngine(store=store, jobs=args.jobs)

    def ready(server):
        print(f"serving on {args.host}:{server.port}", flush=True)
        if server.resumed:
            print(f"resumed {server.resumed} persisted submissions",
                  file=sys.stderr)

    asyncio.run(serve(
        core, engine, store=store, host=args.host, port=args.port, ready=ready
    ))
    counts = ", ".join(
        f"{status}={n}" for status, n in sorted(core.counts.items()) if n
    )
    print(f"drained ({counts or 'no requests'})", file=sys.stderr)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro", description="WeHeY reproduction command line"
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    localize = subparsers.add_parser(
        "localize", help="run one end-to-end localization test"
    )
    _add_scenario_arguments(localize)
    localize.add_argument(
        "--merge-flows", action="store_true",
        help="apply the Section-7 flow-merging countermeasure",
    )
    localize.add_argument(
        "--max-retries", type=int, default=2,
        help="retries after an aborted or unusable replay (default 2)",
    )
    localize.add_argument(
        "--fault-profile", default="none",
        help="fault-injection profile: none, flaky, chaos, or a spec "
             "like 'replay_abort=0.5,traceroute_timeout=1.0:2'",
    )
    localize.set_defaults(func=cmd_localize)

    topology = subparsers.add_parser(
        "topology",
        help="run topology construction on a policy-routed synthetic internet",
    )
    topology.add_argument("--isps", type=int, default=8, help="client ISPs")
    topology.add_argument("--clients", type=int, default=6, help="clients per ISP")
    topology.add_argument("--seed", type=int, default=0)
    topology.add_argument(
        "--ases", type=int, default=200, metavar="N",
        help="ASes in the seeded policy-routed AS graph (default 200)",
    )
    topology.add_argument(
        "--dynamics-events", type=int, default=0, metavar="N",
        help="schedule N link failures (plus recoveries and one policy "
             "flip), heal stale entries, and report post-dynamics oracle "
             "precision and recall",
    )
    topology.set_defaults(func=cmd_topology)

    sweep = subparsers.add_parser("sweep", help="run an FN/FP seed sweep")
    _add_scenario_arguments(sweep)
    sweep.add_argument("--seeds", type=int, default=5)
    sweep.add_argument(
        "--jobs", type=int, default=None,
        help="worker processes for the sweep (default: all cores; "
             "1 forces serial execution)",
    )
    sweep.add_argument(
        "--fault-profile", default="none",
        help="per-cell fault-injection profile (seeded from each "
             "cell's seed); none, flaky, chaos, or a spec string",
    )
    sweep.add_argument(
        "--cell-timeout", type=float, default=None, metavar="SECONDS",
        help="wall-clock budget per parallel cell; a cell that "
             "overruns has its worker killed and is retried",
    )
    sweep.add_argument(
        "--max-cell-retries", type=int, default=2, metavar="N",
        help="extra attempts per cell after a worker death, timeout, "
             "or transient exception before the cell is quarantined "
             "(default 2)",
    )
    sweep.add_argument(
        "--strict", action="store_true",
        help="abort the sweep on the first quarantine-worthy cell "
             "instead of quarantining it (exit 1); default is to "
             "finish the sweep and exit 3 with a failure table",
    )
    sweep.add_argument(
        "--store", default=None, metavar="DIR",
        help="experiment-store root: reuse cached cells, checkpoint "
             "each completed cell, and record the run in the ledger",
    )
    sweep.add_argument(
        "--resume", action="store_true",
        help="resume an interrupted sweep from --store (cache reuse is "
             "the default with --store; this flag documents intent and "
             "errors without --store)",
    )
    sweep.add_argument(
        "--no-cache", action="store_true",
        help="with --store: recompute every cell (still checkpoints "
             "fresh results into the store)",
    )
    sweep.add_argument(
        "--json", action="store_true",
        help="emit one canonical JSONL record per cell on stdout (the "
             "store serialization); the summary moves to stderr",
    )
    sweep.add_argument(
        "--metrics", nargs="?", const="", default=None, metavar="PATH",
        help="collect observability metrics for the sweep and print a "
             "summary table to stderr; with PATH, also export the "
             "snapshot as JSONL (never changes sweep records)",
    )
    sweep.set_defaults(func=cmd_sweep)

    qdisc = subparsers.add_parser(
        "qdisc",
        help="list registered shaper mechanisms (the qdisc registry)",
    )
    qdisc.add_argument(
        "--build", action="store_true",
        help="smoke-build every mechanism at every supported fidelity "
             "(exit 1 on any failure); the CI registry-smoke step",
    )
    qdisc.set_defaults(func=cmd_qdisc)

    serve = subparsers.add_parser(
        "serve",
        help="run the overload-safe WeHeY submission service "
             "(newline-delimited JSON over TCP)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=0,
        help="listen port (default 0: pick a free port and print it)",
    )
    serve.add_argument(
        "--store", default=None, metavar="DIR",
        help="experiment-store root: serve cached verdicts, checkpoint "
             "cells, and persist/resume the pending queue across "
             "SIGTERM drains",
    )
    serve.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes per dispatched batch (default 1)",
    )
    serve.add_argument(
        "--max-queue", type=int, default=64,
        help="bounded accept-queue size (default 64)",
    )
    serve.add_argument(
        "--tenant-rate", type=float, default=None, metavar="RPS",
        help="per-tenant admission rate cap in requests/s "
             "(default: uncapped)",
    )
    serve.add_argument(
        "--synthetic", action="store_true",
        help="serve deterministic synthetic verdicts instead of running "
             "real detection sweeps (for load tests and CI)",
    )
    serve.add_argument(
        "--synthetic-service-s", type=float, default=0.1, metavar="SECONDS",
        help="mean synthetic service time per reference cell "
             "(with --synthetic; default 0.1)",
    )
    serve.set_defaults(func=cmd_serve)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
