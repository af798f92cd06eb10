"""localize-hybrid: closed-loop WeHeY verdicts at the paper's setting.

One client asks for one verdict at a time (closed loop, concurrency 1).
A round is six verdicts in a fixed order: zoom (UDP) and netflix (TCP)
behind a ``common`` and a ``noncommon`` limiter, each driven the way
``repro localize`` drives ``WeHeYLocalizer.localize`` at
``fidelity="hybrid"`` with 60 s replays, then ``run_wild_test`` for
ISP1 (per-client throttling) and ISP5 (the delayed trigger), which
replays for its own default of 45 s.  Between
them the round yields all three verdict kinds and runs all three tests.

Scenario seeds come from :data:`POOLS`: seeds whose verdicts were valid
-- and, behind a ``noncommon`` limiter, not localized -- at the commit
that added the benchmark (``scan_pool.py`` regenerates them).  About
one zoom ``noncommon`` seed in ten localizes at this setting and one
netflix seed in thirty yields too few samples, so unpinned seeds would
fail the correctness check by chance.  The run seed picks the pool
entries; a change that flips a pooled verdict fails the check.
"""

import statistics

import numpy as np

from repro.core.localizer import WeHeYLocalizer
from repro.experiments import runner, wild
from repro.experiments.scenarios import ScenarioConfig
from repro.netsim.engine import events_processed_total
from repro.obs import MetricsSink, use_sink
from repro.wehe import apps, traces

import checks
import layers
from common import (
    NormalizedClock,
    Outcome,
    derive_seeds,
    fresh_program_caches,
    median_setup,
    run_rounds,
    spans_path,
    timed,
)
from spans import SpanRecorder

#: ``(app or ISP, limiter)``; a ``None`` limiter marks a wild-ISP cell.
CELLS = (
    ("zoom", "common"),
    ("zoom", "noncommon"),
    ("netflix", "common"),
    ("netflix", "noncommon"),
    ("ISP1", None),
    ("ISP5", None),
)

POOLS = {
    ("zoom", "common"): tuple(range(1000, 1012)),
    ("zoom", "noncommon"): (
        1000, 1002, 1003, 1004, 1005, 1007, 1008, 1009, 1011, 1012, 1013, 1014,
    ),
    ("netflix", "common"): tuple(range(1000, 1012)),
    ("netflix", "noncommon"): tuple(range(1000, 1012)),
    ("ISP1", None): tuple(range(1000, 1012)),
    ("ISP5", None): tuple(range(1000, 1012)),
}

#: Replay seconds of the scenario cells; the pools hold at this length only.
DURATION = 60.0


def label(cell, seed):
    name, limiter = cell
    return f"{name}/{limiter or 'wild'}/seed={seed}"


def verdict(cell, seed, tdiff):
    """One verdict: ``repro localize`` for a scenario, else ``run_wild_test``."""
    name, limiter = cell
    if limiter is None:
        return wild.run_wild_test(name, seed=seed, fidelity="hybrid")
    config = ScenarioConfig(
        app=name, limiter=limiter, duration=DURATION, seed=seed, fidelity="hybrid"
    )
    localizer = WeHeYLocalizer(np.random.default_rng(seed), tdiff)
    service = runner.NetsimReplayService(config)
    trace = apps.make_trace(config.app, config.duration, service._trace_rng)
    return localizer.localize(service, trace, traces.bit_invert(trace))


def round_plan(seed, index, cells=CELLS):
    """The ``(cell, scenario seed)`` list of round ``index``."""
    offsets = derive_seeds(seed, len(cells), salt=0)
    plan = []
    for cell, offset in zip(cells, offsets):
        pool = POOLS[cell]
        plan.append((cell, pool[(offset + index) % len(pool)]))
    return plan


def _setup():
    # default_tdiff() memoizes the corpus build; clear it so every
    # set-up repeat pays for it, as a fresh process does.
    wild._TDIFF_CACHE.clear()
    return wild.default_tdiff()


def _play(plan, tdiff, walls, reports, recorder=None, clock=None):
    for cell, seed in plan:
        if recorder is not None:
            recorder.op = label(cell, seed)
        report, wall = (clock.time if clock else timed)(verdict, cell, seed, tdiff)
        walls.append((cell, wall))
        reports.append(report)


def _report_digest(reports):
    lines = []
    for report in reports:
        throughput = report.throughput_result
        loss = report.loss_result
        lines.append((
            report.outcome.value,
            report.reason_code,
            None if throughput is None else repr(throughput.pvalue),
            None if loss is None else (loss.n_correlated, loss.n_intervals_tested),
        ))
    return lines


def run(seed, seconds, trace, cells=CELLS):
    tdiff, setup_s = median_setup(_setup)
    if trace:
        return _traced(seed, tdiff, cells)
    walls, reports, plans = [], [], []
    clock = NormalizedClock()

    def body(index):
        plan = round_plan(seed, index, cells)
        plans.extend(plan)
        _play(plan, tdiff, walls, reports, clock=clock)

    with clock:
        run_rounds(seconds, body)
    wild_walls = [w for cell, w in walls if cell[1] is None]
    outcome = _outcome(plans, reports)
    outcome.metrics = {
        "setup_s": setup_s,
        "ops_per_s": len(walls) / sum(w for _cell, w in walls),
        "op_p50_s": statistics.median(w for _cell, w in walls),
        "alt_ops_per_s": len(wild_walls) / sum(wild_walls),
    }
    return outcome


def _outcome(plans, reports):
    cells = [(label(cell, s), cell[1]) for cell, s in plans]
    problems = checks.localize_problems(cells, reports)
    failed = sum(
        1 for (_l, limiter), report in zip(cells, reports)
        if report.invalid or (limiter == "noncommon" and report.localized)
    )
    outcome = Outcome({}, attempted=len(reports), failed=failed, problems=problems)
    outcome.notes.append(f"verdict digest: {checks.verdict_digest(reports)}")
    return outcome


def _traced(seed, tdiff, cells):
    """One round untraced, then the same round traced with metrics on."""
    plan = round_plan(seed, 0, cells)
    plain_walls, plain_reports = [], []
    recorder = SpanRecorder()
    walls, reports = [], []
    with NormalizedClock() as clock:
        _, plain_time = clock.time(_play, plan, tdiff, plain_walls, plain_reports)
        fresh_program_caches()
        with recorder, use_sink(MetricsSink()) as sink:
            layers.wrap_simulation(recorder)
            recorder.wrap(wild, "run_wild_test", "wild.test")
            events_before = events_processed_total()
            _, traced_time = clock.time(_play, plan, tdiff, walls, reports, recorder)
            events = events_processed_total() - events_before
            snapshot = sink.snapshot()
    recorder.write(spans_path("localize-hybrid"))

    outcome = _outcome(plan + plan, plain_reports + reports)
    if _report_digest(reports) != _report_digest(plain_reports):
        outcome.problems.append("traced reports differ from untraced reports")
    totals, top = recorder.reduce()
    outcome.metrics = layers.simulation_metrics(totals, events, snapshot)
    outcome.metrics["trace.coverage"] = top / clock.last_wall
    outcome.metrics["trace.overhead"] = traced_time / plain_time - 1.0
    return outcome
