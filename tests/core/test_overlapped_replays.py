"""Overlapped and serial replay schedules give identical verdicts.

With two or more jobs, ``WeHeYLocalizer.localize`` runs a verdict's
single replay and original simultaneous replay in one forked child
while the parent runs the inverted replay (DESIGN.md, "Overlapped
replays").  ``DIGESTS`` were computed when every verdict ran its three
replays serially; each schedule must reproduce them, advance
``events_processed_total()`` by the same count, and fork exactly one
child per verdict only when it overlaps.
"""

import hashlib
import os
import subprocess
import sys

import numpy as np
import pytest

import repro
from repro.api import SweepRequest, run_sweep
from repro.core.coordinator import WeHeYCoordinator
from repro.core.localizer import WeHeYLocalizer
from repro.experiments import runner
from repro.experiments.scenarios import ScenarioConfig
from repro.experiments.wild import default_tdiff, run_wild_test
from repro.faults import FaultInjector, RetryPolicy
from repro.inet import PolicyInternet
from repro.mlab.annotations import AnnotationDatabase
from repro.mlab.topology_construction import build_topology
from repro.mlab.traceroute import collect_month
from repro.mlab.verification import TopologyVerifier
from repro.netsim.engine import events_processed_total
from repro.obs import MetricsSink, use_sink
from repro.wehe.apps import make_trace
from repro.wehe.traces import bit_invert

needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")


def scenario_verdict(app, limiter, seed, fidelity="hybrid", duration=20.0,
                     fault_injector=None):
    """``repro localize`` for one scenario, as the CLI drives it."""
    config = ScenarioConfig(
        app=app, limiter=limiter, duration=duration, seed=seed, fidelity=fidelity
    )
    service = runner.NetsimReplayService(config, fault_injector=fault_injector)
    trace = make_trace(app, duration, service._trace_rng)
    localizer = WeHeYLocalizer(np.random.default_rng(seed), default_tdiff())
    return localizer.localize(service, trace, bit_invert(trace))


VERDICTS = {
    "hybrid/netflix/common/0": lambda: scenario_verdict("netflix", "common", 0),
    "hybrid/netflix/noncommon/0": lambda: scenario_verdict("netflix", "noncommon", 0),
    "hybrid/zoom/common/0": lambda: scenario_verdict("zoom", "common", 0),
    "hybrid/zoom/noncommon/0": lambda: scenario_verdict("zoom", "noncommon", 0),
    "packet/netflix/common/0": lambda: scenario_verdict(
        "netflix", "common", 0, fidelity="packet", duration=10.0
    ),
    "wild/ISP1/0": lambda: run_wild_test("ISP1", seed=0, fidelity="hybrid"),
    "wild/ISP5/0": lambda: run_wild_test("ISP5", seed=0, fidelity="hybrid"),
    "wild/ISP1/0/sanity": lambda: run_wild_test(
        "ISP1", seed=0, fidelity="hybrid", sanity_check=True
    ),
}

#: Serial-schedule digests (see ``report_digest``).
DIGESTS = {
    "hybrid/netflix/common/0": "c62cb6779a0f1ce8",
    "hybrid/netflix/noncommon/0": "cdbb9ef260d4602f",
    "hybrid/zoom/common/0": "e2459a793fadb235",
    "hybrid/zoom/noncommon/0": "c244220e5e3774fb",
    "packet/netflix/common/0": "bb1a6a3ed00cb0ff",
    "wild/ISP1/0": "caf5ac7b1a2cfa4e",
    "wild/ISP5/0": "3df1ba3dbf4e7749",
    "wild/ISP1/0/sanity": "f99f6104bdbd148e",
}


def report_digest(report):
    """Outcome, reason code, every p-value's repr, loss interval counts."""
    c1, c2 = report.confirmation_1, report.confirmation_2
    throughput, loss = report.throughput_result, report.loss_result
    fields = (
        report.outcome.value,
        report.reason_code,
        None if c1 is None else repr(c1.pvalue),
        None if c2 is None else repr(c2.pvalue),
        None if throughput is None else repr(throughput.pvalue),
        None if loss is None else (loss.n_correlated, loss.n_intervals_tested),
    )
    return hashlib.sha256(repr(fields).encode()).hexdigest()[:16]


class ForkCounter:
    """Stands in for ``os.fork`` and counts the calls made by this process."""

    def __init__(self):
        self.calls = 0
        self._fork = os.fork

    def __call__(self):
        self.calls += 1
        return self._fork()


def run_counted(monkeypatch, jobs, verdict):
    """``(report, events, forks)`` of one verdict under ``REPRO_JOBS=jobs``."""
    monkeypatch.setenv("REPRO_JOBS", str(jobs))
    forks = ForkCounter()
    if hasattr(os, "fork"):
        monkeypatch.setattr(os, "fork", forks)
    before = events_processed_total()
    report = verdict()
    return report, events_processed_total() - before, forks.calls


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


#: mode -> (REPRO_JOBS, metrics on)
MODES = {"serial": (1, False), "overlapped": (2, False), "metrics": (2, True)}


@pytest.fixture(scope="module")
def runs():
    """mode -> verdict name -> (digest, events, forks)."""
    results = {}
    for mode, (jobs, metered) in MODES.items():
        results[mode] = {}
        for name, verdict in VERDICTS.items():
            with pytest.MonkeyPatch.context() as monkeypatch:
                if metered:
                    with use_sink(MetricsSink()):
                        report, events, forks = run_counted(monkeypatch, jobs, verdict)
                else:
                    report, events, forks = run_counted(monkeypatch, jobs, verdict)
            results[mode][name] = (report_digest(report), events, forks)
    return results


@pytest.mark.parametrize("mode", sorted(MODES))
def test_every_schedule_reproduces_the_serial_digests(runs, mode):
    assert {name: run[0] for name, run in runs[mode].items()} == DIGESTS


@pytest.mark.parametrize("mode", ["overlapped", "metrics"])
def test_every_schedule_counts_the_serial_events(runs, mode):
    serial = {name: run[1] for name, run in runs["serial"].items()}
    assert {name: run[1] for name, run in runs[mode].items()} == serial
    assert all(events > 0 for events in serial.values())


@needs_fork
def test_only_the_overlapped_schedule_forks_one_child_per_verdict(runs):
    forks = {mode: {run[2] for run in by_name.values()} for mode, by_name in runs.items()}
    assert forks == {"serial": {0}, "overlapped": {1}, "metrics": {0}}
    assert_no_child_left()


@needs_fork
def test_fault_injector_keeps_the_schedule_serial(monkeypatch):
    injector = FaultInjector.from_spec("corrupt_loss=0.0", seed=0)
    report, _events, forks = run_counted(
        monkeypatch, 2,
        lambda: scenario_verdict("zoom", "common", 0, fault_injector=injector),
    )
    assert forks == 0
    assert report_digest(report) == DIGESTS["hybrid/zoom/common/0"]
    assert injector.draws_by_site


# -- child failures and reaping ---------------------------------------


@pytest.fixture
def planted_original_failure(monkeypatch):
    """``_Environment.run`` raises in the original simultaneous replay only."""
    kinds = {}
    attach = runner.attach_replay
    run = runner._Environment.run

    def tagging_attach(sim, topology, which, trace, **kwargs):
        kinds.setdefault(id(sim), set()).add((which, trace.is_original))
        return attach(sim, topology, which, trace, **kwargs)

    def planted_run(env):
        if (2, True) in kinds.get(id(env.sim), ()):
            raise ValueError("planted failure in the original replay")
        return run(env)

    monkeypatch.setattr(runner, "attach_replay", tagging_attach)
    monkeypatch.setattr(runner._Environment, "run", planted_run)


@pytest.mark.parametrize("jobs", [1, 2])
def test_child_failure_surfaces_in_the_parent(monkeypatch, planted_original_failure, jobs):
    monkeypatch.setenv("REPRO_JOBS", str(jobs))
    with pytest.raises(ValueError, match="^planted failure in the original replay$"):
        scenario_verdict("zoom", "common", 0)
    if hasattr(os, "fork"):
        assert_no_child_left()


@needs_fork
def test_invalid_single_replay_closes_the_child(monkeypatch):
    # Seed 1's netflix single replay delivers too few samples at 20 s.
    report, _events, forks = run_counted(
        monkeypatch, 2, lambda: scenario_verdict("netflix", "common", 1)
    )
    assert report.reason_code == "invalid:single-replay:too-few-samples"
    assert forks == 1
    assert_no_child_left()


@needs_fork
def test_wild_sweep_workers_fork_no_replay_child(monkeypatch, tmp_path):
    parent = os.getpid()
    log = tmp_path / "worker-forks"
    fork = os.fork

    def logging_fork():
        if os.getpid() != parent:
            with open(log, "a") as handle:
                handle.write(f"{os.getpid()}\n")
        return fork()

    monkeypatch.delenv("REPRO_JOBS", raising=False)
    monkeypatch.setattr(os, "fork", logging_fork)

    def sweep(jobs):
        request = SweepRequest.wild(["ISP1"], seeds=range(2), fidelity="hybrid", jobs=jobs)
        return run_sweep(request).results

    assert sweep(2) == sweep(1)
    assert not log.exists()


# -- fault schedules --------------------------------------------------


def test_coordinator_fault_draws_match_the_serial_schedule(monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "2")
    rng = np.random.default_rng(41)
    internet = PolicyInternet(seed=0, rng=rng)
    annotations = AnnotationDatabase(internet)
    month = collect_month(internet, rng, tests_per_client=len(internet.servers))
    database = build_topology(month, annotations)
    client = next(c for c in internet.clients if database.lookup(c.ip, c.asn))
    injector = FaultInjector.from_spec("replay_abort=0.5,truncated_samples=0.3", seed=0)
    coordinator = WeHeYCoordinator(
        internet,
        database,
        TopologyVerifier(internet, annotations, rng),
        ScenarioConfig(app="zoom", limiter="common", duration=8.0),
        rng,
        np.random.default_rng(9).normal(0.0, 0.08, 80),
        retry_policy=RetryPolicy(max_attempts=3, base_backoff_s=0.0),
        fault_injector=injector,
    )
    report = coordinator.run_test(client.name, app="zoom")
    failures = [a.failure and a.failure.value for a in report.attempts]
    # Pinned from the serial schedule: one aborted attempt, then a verdict.
    assert (report.status.value, failures) == ("completed", ["replay-failed", None])
    assert dict(injector.draws_by_site) == {"replay_abort": 4, "truncated_samples": 3}


# -- import weight ----------------------------------------------------


def test_localize_import_chain_leaves_out_multiprocessing():
    code = (
        "import sys, repro.core.localizer, repro.experiments.runner, "
        "repro.experiments.wild; print('multiprocessing' in sys.modules)"
    )
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"
