import argparse
import json
import sys

from repro.claims import CLAIMS, run, select


def _log(name, wall, failures):
    print(f"{name:<12} {'ok' if not failures else 'FAILED':<6} {wall:7.1f} s", flush=True)
    for failure in failures:
        print(f"  FAIL: {failure}", flush=True)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="repro.claims",
        description="measure every claim, check its bounds, write one report",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="smaller grids for smoke runs (every bound still applies)",
    )
    parser.add_argument(
        "--only", default=None, metavar="NAME[,NAME...]",
        help=f"run only these claims, from: {', '.join(CLAIMS)}",
    )
    parser.add_argument(
        "--out", default="CLAIMS.json",
        help="where to write the report (default: %(default)s)",
    )
    args = parser.parse_args(argv)
    only = [name.strip() for name in (args.only or "").split(",") if name.strip()]
    try:
        names = select(only)
    except ValueError as exc:
        parser.error(str(exc))

    results = run(quick=args.quick, only=names, log=_log)
    with open(args.out, "w") as fh:
        json.dump(results, fh, indent=2, sort_keys=True)
        fh.write("\n")
    failed = [name for name, claim in results["claims"].items() if claim["failures"]]
    print(f"wrote {args.out}: {len(results['claims']) - len(failed)} ok, "
          f"{len(failed)} failed{' (' + ', '.join(failed) + ')' if failed else ''}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
