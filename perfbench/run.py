"""Run one benchmark workload; the last stdout line is its JSON result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root: the workload imports the program from
``src/`` and takes metric names and units from ``BENCHMARK.json``.
``--trace 0`` measures the end-to-end metrics with tracing and
``repro.obs`` metrics off.  ``--trace 1`` runs the workload once
untraced and once traced, and reports the per-layer metrics; a layer
the workload does not load reports 0.  Spans go to
``.perfbench/spans-<workload>.jsonl``.
"""

import argparse
import importlib
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Workload name -> module in this directory with a ``run(seed, seconds, trace)``.
WORKLOADS = {
    "localize-hybrid": "localize",
    "sweep-packet": "sweep",
    "tc-1m": "tc",
    "service-onehot": "service",
}


def import_seconds(module):
    """Median normalized time a fresh interpreter takes to import ``module``.

    Imports happen once per process, so the set-up repeats import the
    workload in child interpreters, whose file reads the first import
    here has already cached.  This process probes the host's speed
    while each child runs.
    """
    code = (
        "import sys, time; "
        f"sys.path[:0] = [{os.path.join(ROOT, 'src')!r}, {HERE!r}]; "
        f"start = time.perf_counter(); import {module}; "
        "print(time.perf_counter() - start)"
    )
    from common import SETUP_REPEATS, NormalizedClock

    seconds = []
    with NormalizedClock() as clock:
        for _ in range(SETUP_REPEATS):
            child = subprocess.run(
                [sys.executable, "-c", code], capture_output=True, text=True, check=True
            )
            seconds.append(clock.scale(float(child.stdout)))
    return statistics.median(seconds)


def measure(workload, seed, seconds, trace, spec):
    """Run ``workload``; returns the result object ``run.py`` prints."""
    module = importlib.import_module(WORKLOADS[workload])
    outcome = module.run(seed, seconds, trace)
    values = dict(outcome.metrics)
    if trace:
        declared = spec["per_layer"]
    else:
        from common import peak_rss_mb

        declared = spec["end_to_end"]
        values["setup_s"] += import_seconds(WORKLOADS[workload])
        values["peak_rss_mb"] = peak_rss_mb()
    metrics = {}
    for entry in declared:
        name = entry["name"]
        value = values.pop(name, 0 if trace else None)
        if value is None:
            raise KeyError(f"{workload} did not measure {name}")
        metrics[name] = {"value": value, "unit": entry["unit"]}
    if values:
        raise KeyError(f"{workload} measured undeclared metrics {sorted(values)}")
    return outcome, {
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }


#: Environment every benchmark process runs under.
#:
#: ``run_wild_test`` seeds its replay service from ``hash(isp.name)``,
#: which Python salts per process; a fixed hash seed makes a run's
#: inputs a function of ``--seed`` alone.  OpenBLAS starts a thread per
#: core when numpy is imported, and on a two-core host those threads
#: made the import time of a fresh interpreter swing by 30% (6% with
#: one thread).
PINNED_ENV = {"PYTHONHASHSEED": "0", "OPENBLAS_NUM_THREADS": "1"}


def pin_environment():
    """Re-execute this process under :data:`PINNED_ENV` unless it has it."""
    if any(os.environ.get(name) != value for name, value in PINNED_ENV.items()):
        env = dict(os.environ, **PINNED_ENV)
        os.execve(sys.executable, [sys.executable, *sys.argv], env)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"perfbench: no repro package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    outcome, result = measure(args.workload, args.seed, args.seconds, bool(args.trace), spec)
    for note in outcome.notes:
        print(note)
    for problem in outcome.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    pin_environment()
    sys.exit(main())
