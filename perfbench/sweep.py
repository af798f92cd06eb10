"""sweep-packet: cold and warm detection sweeps through the experiment store.

A round is one cold ``run_sweep(SweepRequest.detection(...))`` at
``fidelity="packet"`` into a fresh ``ExperimentStore`` with
``jobs = min(2, nproc)``, then the same request again, warm, for
:data:`WARM_SECONDS`.  Every warm pass opens the store afresh and reads
the shards from disk, as a rerun of ``repro sweep --store`` does; warm
throughput is per the median batch of :data:`WARM_BATCH` passes.  The
cold figures are the pass's cells per second and the median seconds a
cell takes in its worker.  The grid crosses netflix/zoom with
``common``/``noncommon`` limiters and seven seeds, plus one CoDel cell
and one 2-member multipath cell, so the qdisc registry and
``MultipathLink`` run too.  Every round draws new scenario seeds.  The
last cells of a pass leave a worker idle, so a pass has 30 short
(10 s) cells rather than fewer long ones: the idle tail is a smaller
share of the pass.  A round takes over half a 20 s run, so every such
run does exactly one.
"""

import os
import shutil
import statistics
import time

from repro import store as store_pkg
from repro.api import SweepRequest, run_sweep
from repro.experiments.scenarios import ScenarioConfig
from repro.netsim.engine import events_processed_total
from repro.parallel import default_jobs, executor
from repro.store import ExperimentStore, record_line

import checks
import layers
from common import (
    OUT_DIR,
    NormalizedClock,
    Outcome,
    counter,
    derive_seeds,
    fresh_program_caches,
    median_setup,
    run_rounds,
    spans_path,
    timed,
)
from spans import SpanRecorder, inclusive, per_call

DURATION = 10.0
#: Wall seconds of warm passes per round.
WARM_SECONDS = 4.0
#: Warm passes timed together.
WARM_BATCH = 10


def grid(seed, index, duration=DURATION, seeds_per_cell=7):
    """The detection configs of round ``index``."""
    scenario_seeds = iter(derive_seeds(seed, 4 * seeds_per_cell + 2, salt=index))
    configs = [
        ScenarioConfig(app=app, limiter=limiter, duration=duration, seed=next(scenario_seeds))
        for app in ("netflix", "zoom")
        for limiter in ("common", "noncommon")
        for _ in range(seeds_per_cell)
    ]
    configs.append(ScenarioConfig(
        app="netflix", limiter="common", duration=duration,
        seed=next(scenario_seeds), shaper="codel",
    ))
    configs.append(ScenarioConfig(
        app="zoom", limiter="common", duration=duration,
        seed=next(scenario_seeds), multipath=2,
    ))
    return configs


class _Stores:
    """Fresh store directories under the run's scratch root."""

    def __init__(self):
        self.root = os.path.join(OUT_DIR, f"stores-{os.getpid()}")
        self.count = 0

    def fresh(self):
        self.count += 1
        return ExperimentStore(os.path.join(self.root, str(self.count)))

    def close(self):
        shutil.rmtree(self.root, ignore_errors=True)


def _setup(seed, duration, seeds_per_cell):
    stores = _Stores()
    stores.fresh()
    stores.close()
    return stores, grid(seed, 0, duration, seeds_per_cell)


def _sweep(configs, jobs, store, metrics=None, clock=None):
    """``(result, record lines, seconds)``; only ``run_sweep`` is timed.

    Seconds are normalized when a ``clock`` is given, else wall.
    """
    request = SweepRequest.detection(
        configs, fidelity="packet", jobs=jobs, store=store, metrics=metrics
    )
    result, seconds = (clock.time if clock else timed)(run_sweep, request)
    return result, [record_line(r) for r in result.results], seconds


def _warm_batch(configs, store):
    """:data:`WARM_BATCH` warm passes; ``[(result, record lines, events)]``.

    Each pass opens the store afresh, as a rerun of ``repro sweep
    --store`` does, so every pass reads the shards from disk.
    """
    passes = []
    for _ in range(WARM_BATCH):
        events_before = events_processed_total()
        fresh = ExperimentStore(store.root, fingerprint=store.fingerprint)
        result, lines, _ = _sweep(configs, 1, fresh)
        passes.append((result, lines, events_processed_total() - events_before))
    return passes


class _WorkerSpeed:
    """Host speed measured where a parallel sweep's cells run.

    The cold pass runs in forked workers on every core, so a probe in
    this process cannot see how fast they ran.  Wrapping the cell
    function before the workers fork puts a :class:`NormalizedClock`
    around each cell in its worker; every cell appends its wall and
    normalized seconds to ``path``, which :meth:`cells` reads back.
    """

    def __init__(self, path):
        self.path = path
        self._original = None

    def __enter__(self):
        original = self._original = executor.run_detection_experiment
        path = self.path

        def cell(*args, **kwargs):
            with NormalizedClock() as clock:
                result, normalized = clock.time(original, *args, **kwargs)
            with open(path, "a") as handle:
                handle.write(f"{clock.last_wall} {normalized}\n")
            return result

        executor.run_detection_experiment = cell
        return self

    def __exit__(self, *exc):
        executor.run_detection_experiment = self._original
        return False

    def cells(self):
        """``(wall, normalized)`` seconds of every cell since the last call."""
        with open(self.path) as handle:
            pairs = [tuple(map(float, line.split())) for line in handle]
        os.remove(self.path)
        return pairs


def run(seed, seconds, trace, duration=DURATION, seeds_per_cell=7):
    jobs = min(2, default_jobs())
    (stores, _configs), setup_s = median_setup(_setup, seed, duration, seeds_per_cell)
    try:
        if trace:
            return _traced(seed, jobs, stores, duration, seeds_per_cell)
        problems = []
        cold, cell_seconds, warm_seconds = [], [], []
        failed = warm_cells = 0
        speed = _WorkerSpeed(os.path.join(stores.root, "cell-speed"))

        def body(index):
            nonlocal failed, warm_cells
            configs = grid(seed, index, duration, seeds_per_cell)
            store = stores.fresh()
            with speed:
                result, lines, wall = _sweep(configs, jobs, store)
            problems.extend(checks.sweep_failure_problems(result, f"round {index}"))
            failed += len(result.failures)
            pairs = speed.cells()
            factor = sum(n for _w, n in pairs) / sum(w for w, _n in pairs)
            cold.append((wall * factor, len(configs)))
            cell_seconds.extend(n for _w, n in pairs)
            with NormalizedClock() as clock:
                deadline = time.perf_counter() + WARM_SECONDS
                while time.perf_counter() < deadline:
                    passes, batch_seconds = clock.time(_warm_batch, configs, store)
                    for warm, warm_lines, events in passes:
                        problems.extend(checks.warm_problems(warm, len(configs), events))
                        problems.extend(checks.record_problems(lines, warm_lines, "warm pass"))
                    warm_seconds.append(batch_seconds / (len(passes) * len(configs)))
                    warm_cells += len(passes) * len(configs)

        run_rounds(seconds, body)
    finally:
        stores.close()
    cells = sum(n for _wall, n in cold)
    return Outcome(
        {
            "setup_s": setup_s,
            "ops_per_s": cells / sum(wall for wall, _n in cold),
            "op_p50_s": statistics.median(cell_seconds),
            # File-system hiccups dominate a short batch's time; the
            # median batch is the steady figure.
            "alt_ops_per_s": 1.0 / statistics.median(warm_seconds),
        },
        attempted=cells + warm_cells,
        failed=failed,
        problems=problems,
    )


def _cell_id(config):
    shaper = config.shaper or "tbf"
    return f"{config.app}/{config.limiter}/{shaper}/mp{config.multipath}/{config.seed}"


def _traced(seed, jobs, stores, duration, seeds_per_cell):
    """Cold at jobs=N, cold at jobs=1 untraced, cold at jobs=1 traced, warm traced.

    Spans need one process, so the traced passes run serially; the
    jobs=N pass supplies the wall time the parallel efficiency divides
    by.  All four record streams must be byte-identical.
    """
    configs = grid(seed, 0, duration, seeds_per_cell)
    problems = []
    parallel, parallel_lines, parallel_wall = _sweep(configs, jobs, stores.fresh(), True)
    recorder = SpanRecorder()
    with NormalizedClock() as clock, recorder:
        fresh_program_caches()
        serial, serial_lines, serial_time = _sweep(configs, 1, stores.fresh(), clock=clock)
        fresh_program_caches()
        layers.wrap_simulation(recorder)
        recorder.wrap(executor, "run_detection_experiment", "sweep.cell",
                      op_of=lambda config, *a, **k: f"{recorder.op}/{_cell_id(config)}")
        for name in ("get", "put"):
            recorder.wrap(ExperimentStore, name, f"store.{name}",
                          op_of=lambda store, key, *a, **k: f"{recorder.op}/{key[:16]}")
        recorder.wrap(store_pkg, "detection_cache_key", "store.key",
                      op_of=lambda config, *a, **k: f"{recorder.op}/{_cell_id(config)}")
        recorder.op = "cold"
        cold_store = stores.fresh()
        events_before = events_processed_total()
        traced, traced_lines, traced_time = _sweep(configs, 1, cold_store, True, clock)
        traced_wall = clock.last_wall
        events = events_processed_total() - events_before
        recorder.op = "warm"
        warm_store = ExperimentStore(cold_store.root)
        warm_before = events_processed_total()
        warm, warm_lines, _ = _sweep(configs, 1, warm_store, True)
        warm_events = events_processed_total() - warm_before
    recorder.write(spans_path("sweep-packet"))

    for result, label in zip((parallel, serial, traced, warm),
                             (f"jobs={jobs}", "jobs=1", "traced jobs=1", "traced warm")):
        problems += checks.sweep_failure_problems(result, label)
    for lines, label in ((parallel_lines, f"jobs={jobs} pass"), (serial_lines, "untraced pass"),
                         (warm_lines, "traced warm pass")):
        problems += checks.record_problems(traced_lines, lines, f"{label} vs traced jobs=1")
    problems += checks.warm_problems(warm, len(configs), warm_events)

    cold, top = recorder.reduce(lambda op: op.startswith("cold"))
    warm_totals, _ = recorder.reduce(lambda op: op.startswith("warm"))
    metrics = layers.simulation_metrics(cold, events, traced.metrics)
    cell_seconds = inclusive(cold, "sweep.cell")
    metrics.update({
        "store.put_s": per_call(cold, "store.put"),
        "store.get_s": per_call(warm_totals, "store.get"),
        "store.key_s": per_call(warm_totals, "store.key"),
        "store.misses": counter(traced.metrics, "store.misses"),
        "store.checkpoints": counter(traced.metrics, "store.checkpoints"),
        "store.hits": counter(warm.metrics, "store.hits"),
        "parallel.efficiency": cell_seconds / (jobs * parallel_wall),
        "parallel.overhead_s": jobs * parallel_wall - cell_seconds,
        "parallel.worker_deaths": counter(parallel.metrics, "parallel.worker_deaths"),
        "parallel.cell_retries": counter(parallel.metrics, "parallel.cell_retries"),
        "trace.coverage": top / traced_wall,
        "trace.overhead": traced_time / serial_time - 1.0,
    })
    sweeps = (parallel, serial, traced, warm)
    return Outcome(
        metrics,
        attempted=len(sweeps) * len(configs),
        failed=sum(len(result.failures) for result in sweeps),
        problems=problems,
    )
