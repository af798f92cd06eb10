"""Store inspection CLI: ``python -m repro.store ls|show|stats|gc``.

The default store root is ``.repro-store`` (override with ``--root`` or
the ``REPRO_STORE`` environment variable) -- the same default the
``repro sweep --store`` flag documents.
"""

import argparse
import json
import os
import sys

from repro.store import ExperimentStore, canonical_json


def _store_from(args):
    return ExperimentStore(args.root)


def _summarize(envelope):
    payload = envelope["payload"]
    kind = payload.get("kind", "?")
    if kind == "detection":
        config = payload.get("config", {})
        detail = (
            f"app={config.get('app')} limiter={config.get('limiter')} "
            f"seed={config.get('seed')} status={payload.get('status')}"
        )
    elif kind == "wild":
        cell = payload.get("cell", {})
        detail = (
            f"isp={cell.get('isp')} app={cell.get('app')} "
            f"seed={cell.get('seed')} outcome={cell.get('outcome')}"
        )
    else:
        detail = ""
    return kind, detail


def cmd_ls(args):
    store = _store_from(args)
    entries = store.entries()
    shown = 0
    for envelope in entries:
        kind, detail = _summarize(envelope)
        if args.kind and kind != args.kind:
            continue
        print(f"{envelope['key'][:16]}  {kind:<9} {detail}")
        shown += 1
        if args.limit and shown >= args.limit:
            break
    print(f"({shown} of {len(entries)} records; root {store.root})", file=sys.stderr)
    return 0


def cmd_show(args):
    store = _store_from(args)
    matches = [
        envelope
        for envelope in store.entries()
        if envelope["key"].startswith(args.key)
    ]
    if not matches:
        print(f"no record with key prefix {args.key!r}", file=sys.stderr)
        return 1
    if len(matches) > 1:
        print(
            f"key prefix {args.key!r} is ambiguous ({len(matches)} matches)",
            file=sys.stderr,
        )
        return 1
    print(json.dumps(matches[0], indent=2, sort_keys=True))
    return 0


def cmd_stats(args):
    store = _store_from(args)
    stats = store.stats()
    if args.json:
        print(canonical_json(stats))
        return 0
    for field in (
        "root",
        "records",
        "stale",
        "corrupt_lines",
        "shards",
        "bytes",
        "runs",
        "interrupted_runs",
    ):
        print(f"{field:<17}: {stats[field]}")
    for run in store.ledger_runs()[-args.runs:]:
        print(
            f"run {run['run_id']}  {run['kind']:<16} cells={run['cells']} "
            f"hits={run['hits']} misses={run['misses']} [{run['status']}]"
        )
    return 0


def cmd_gc(args):
    store = _store_from(args)
    result = store.gc(dry_run=args.dry_run)
    verb = "would remove" if args.dry_run else "removed"
    print(f"{verb} {result['removed']} stale/corrupt/superseded lines; "
          f"{result['kept']} records kept")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro.store", description="inspect the experiment store"
    )
    parser.add_argument(
        "--root",
        default=os.environ.get("REPRO_STORE", ".repro-store"),
        help="store root directory (default: $REPRO_STORE or .repro-store)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    ls = subparsers.add_parser("ls", help="list cached records")
    ls.add_argument("--kind", choices=["detection", "wild"], default=None)
    ls.add_argument("--limit", type=int, default=0, help="max rows (0 = all)")
    ls.set_defaults(func=cmd_ls)

    show = subparsers.add_parser("show", help="print one record by key prefix")
    show.add_argument("key", help="cache key (any unambiguous prefix)")
    show.set_defaults(func=cmd_show)

    stats = subparsers.add_parser("stats", help="store-wide counts + recent runs")
    stats.add_argument("--json", action="store_true", help="machine-readable output")
    stats.add_argument("--runs", type=int, default=5, help="recent runs to list")
    stats.set_defaults(func=cmd_stats)

    gc = subparsers.add_parser(
        "gc", help="compact shards; drop stale/corrupt/superseded lines"
    )
    gc.add_argument("--dry-run", action="store_true")
    gc.set_defaults(func=cmd_gc)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Downstream pipe closed early (e.g. `... show KEY | head`);
        # point stdout at devnull so interpreter shutdown stays quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
