"""service-onehot: the loadgen ``onehot`` overload mix through the service core.

Open loop: arrivals for one hot tenant at 1.6x capacity plus four light
tenants at 0.1x each are generated up front with Lewis-Shedler thinning
over :data:`VIRTUAL_S` virtual seconds, then replayed through
``VirtualService`` + ``ServiceCore`` + ``SyntheticEngine`` round after
round.  Each round also replays the ``baseline`` mix -- the light
tenants alone -- whose requests take the accept path that overload
mostly short-cuts with a rejection.  Every round must make the same
decisions.  Latency is measured from each request's due time; the
virtual driver submits every arrival exactly at its due time, and
``loadgen.late_s`` reports how late it ran.  No ``netsim`` code runs.
"""

import statistics

from repro.loadgen import arrivals
from repro.loadgen.driver import VirtualService
from repro.loadgen.scenarios import MEAN_SERVICE_S, build_scenario
from repro.obs import MetricsSink, use_sink
from repro.service.core import ServiceCore
from repro.service.engine import SyntheticEngine
from repro.service.protocol import Status

import checks
from common import (
    NormalizedClock,
    Outcome,
    counter,
    derive_seeds,
    median_setup,
    run_rounds,
    spans_path,
)
from spans import SpanRecorder, inclusive, own, per_call

VIRTUAL_S = 600.0

#: ``onehot`` is the overload under test; ``baseline`` (its light tenants
#: alone) takes the accept path that overload mostly short-cuts.
SCENARIOS = ("onehot", "baseline")

#: ServiceCore methods whose mean cost per call the traced run reports.
CORE_CALLS = ("submit", "next_batch", "batch_done", "tick")


def _setup(seed, virtual_s):
    """The scenario seed and ``{scenario: (config, arrival trace)}``."""
    scenario_seed = derive_seeds(seed, 1, salt=0)[0]
    scenarios = {}
    for name in SCENARIOS:
        tenants, rate_fn, config = build_scenario(name, duration_s=virtual_s)
        trace = arrivals.generate_trace(tenants, virtual_s, scenario_seed, rate_fn=rate_fn)
        scenarios[name] = (config, trace)
    return scenario_seed, scenarios


def _replay(scenario_seed, config, trace):
    core = ServiceCore(config)
    engine = SyntheticEngine(mean_service_s=MEAN_SERVICE_S, jitter=0.4, seed=scenario_seed)
    return VirtualService(core, engine).run(trace), core


def _quantile(values, q):
    """The convention of ``repro.loadgen.driver.summarize``."""
    return values[min(len(values) - 1, int(q * len(values)))] if values else 0.0


def _latencies(result, tenant_prefix=""):
    """Sorted virtual seconds from due time to verdict."""
    return sorted(
        when - result.submitted[response.id]
        for when, response, _delivered in result.completions
        if response.status == Status.VERDICT and response.tenant.startswith(tenant_prefix)
    )


def _failed(core):
    return core.counts[Status.FAILED] + core.counts[Status.DEADLINE_EXCEEDED]


def run(seed, seconds, trace, virtual_s=VIRTUAL_S):
    (scenario_seed, scenarios), setup_s = median_setup(_setup, seed, virtual_s)
    if trace:
        config, arrivals_trace = scenarios["onehot"]
        return _traced(seed, scenario_seed, config, arrivals_trace, virtual_s)
    walls = {name: [] for name in SCENARIOS}
    first_logs, problems = {}, []
    failed = 0

    def body(_index):
        nonlocal failed
        for name, (config, arrivals_trace) in scenarios.items():
            (result, core), wall = clock.time(_replay, scenario_seed, config, arrivals_trace)
            walls[name].append(wall)
            logs = [first_logs.setdefault(name, core.decision_log), core.decision_log]
            problems.extend(checks.service_problems(result, logs))
            failed += _failed(core)

    with NormalizedClock() as clock:
        run_rounds(seconds, body)
    onehot = len(scenarios["onehot"][1])
    return Outcome(
        {
            "setup_s": setup_s,
            "ops_per_s": onehot * len(walls["onehot"]) / sum(walls["onehot"]),
            "op_p50_s": statistics.median(walls["onehot"]) / onehot,
            "alt_ops_per_s": (
                len(scenarios["baseline"][1]) * len(walls["baseline"]) / sum(walls["baseline"])
            ),
        },
        attempted=sum(len(trace) * len(walls[name]) for name, (_c, trace) in scenarios.items()),
        failed=failed,
        problems=problems,
    )


def _traced(seed, scenario_seed, config, arrivals_trace, virtual_s):
    """One untraced pass, then the set-up and the same pass traced."""
    recorder = SpanRecorder()
    with NormalizedClock() as clock:
        (_plain, plain_core), plain_time = clock.time(
            _replay, scenario_seed, config, arrivals_trace
        )
        with recorder, use_sink(MetricsSink()) as sink:
            recorder.wrap(arrivals, "generate_trace", "loadgen.trace")
            recorder.op = "setup"
            _setup(seed, virtual_s)
            recorder.op = "replay"
            recorder.wrap(VirtualService, "run", "loadgen.driver")
            for name in CORE_CALLS:
                recorder.wrap(ServiceCore, name, f"service.{name}")
            (result, core), traced_time = clock.time(
                _replay, scenario_seed, config, arrivals_trace
            )
            snapshot = sink.snapshot()
    recorder.write(spans_path("service-onehot"))

    problems = checks.service_problems(result, [plain_core.decision_log, core.decision_log])
    setup_totals, _ = recorder.reduce(lambda op: op == "setup")
    totals, top = recorder.reduce(lambda op: op == "replay")
    latencies = _latencies(result)
    due = sorted(when for when, _raw in arrivals_trace)
    submitted = sorted(result.submitted.values())
    metrics = {
        "svc.p50_s": _quantile(latencies, 0.5),
        "svc.p99_s": _quantile(latencies, 0.99),
        "svc.goodput_rps": core.counts[Status.VERDICT] / result.duration_s,
        "svc.light_p99_s": _quantile(_latencies(result, "light-"), 0.99),
        "svc.reject_share": core.counts[Status.REJECTED_OVERLOAD] / len(result.submitted),
        "loadgen.late_s": max(s - d for s, d in zip(submitted, due)),
        "loadgen.trace_s": inclusive(setup_totals, "loadgen.trace"),
        "loadgen.driver_self_s": own(totals, "loadgen.driver"),
        "service.batches": counter(snapshot, "service.batches"),
        "service.decisions": len(core.decision_log),
        "service.governor_transitions": len(core.governor.transitions),
        "trace.coverage": top / clock.last_wall,
        "trace.overhead": traced_time / plain_time - 1.0,
    }
    for name in CORE_CALLS:
        metrics[f"service.{name}_us"] = 1e6 * per_call(totals, f"service.{name}")
    return Outcome(
        metrics,
        attempted=2 * len(arrivals_trace),
        failed=_failed(plain_core) + _failed(core),
        problems=problems,
    )

