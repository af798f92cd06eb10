"""Span targets and per-layer reductions for the replay/netsim/core stack.

Both simulation workloads (localize-hybrid, sweep-packet) load the same
layers, so they share the list of wrapped calls and the fold from spans
and ``repro.obs`` counters to per-layer metrics.
"""

from repro.core import localizer
from repro.core.loss_correlation import LossTrendCorrelation
from repro.core.throughput_comparison import ThroughputComparison
from repro.experiments import runner, wild
from repro.netsim.engine import Simulator
from repro.wehe import apps, traces

from common import counter
from spans import inclusive, own

#: Live ``repro.obs`` counters reported as behaviour checks: a change in
#: any of them means the simulation changed, not just its speed.
NETSIM_COUNTERS = (
    "netsim.queue.drops",
    "netsim.tbf.drops",
    "netsim.tbf.deferrals",
    "netsim.tcp.retransmits",
    "netsim.tcp.rto_events",
    "netsim.codel.drops",
    "netsim.multipath.rehashes",
    "netsim.fluid.rate_segments",
    "netsim.fluid.deferrals",
)


def wrap_simulation(recorder):
    """Span every replay, engine run, trace build and statistical test."""
    for service in (runner.NetsimReplayService, wild.WildReplayService):
        recorder.wrap(service, "single_replay", "replay.single")
        recorder.wrap(service, "simultaneous_replay", "replay.simultaneous")
    recorder.wrap(Simulator, "run", "netsim.run")
    # make_trace is bound by name in each caller's module.
    for module in (apps, runner, wild):
        recorder.wrap(module, "make_trace", "wehe.trace")
    recorder.wrap(traces, "bit_invert", "wehe.trace")
    recorder.wrap(localizer.WeHeYLocalizer, "localize", "core.localize")
    recorder.wrap(localizer, "detect_differentiation", "core.confirm")
    recorder.wrap(ThroughputComparison, "detect", "core.throughput")
    recorder.wrap(LossTrendCorrelation, "detect", "core.losscorr")


def simulation_metrics(totals, events, snapshot):
    """Per-layer metrics from span totals, an event count and obs counters."""
    run_s = own(totals, "netsim.run")
    metrics = {
        "replay.single_s": inclusive(totals, "replay.single"),
        "replay.simultaneous_s": inclusive(totals, "replay.simultaneous"),
        "replay.self_s": own(totals, "replay.single") + own(totals, "replay.simultaneous"),
        "wehe.trace_s": inclusive(totals, "wehe.trace"),
        "netsim.run_s": run_s,
        "netsim.events": events,
        "netsim.events_per_s": events / run_s if run_s > 0 else 0.0,
        "core.throughput_s": inclusive(totals, "core.throughput"),
        "core.confirm_s": inclusive(totals, "core.confirm"),
        "core.localize_self_s": own(totals, "core.localize"),
        "core.losscorr_s": inclusive(totals, "core.losscorr"),
    }
    for name in NETSIM_COUNTERS:
        metrics[name] = counter(snapshot, name)
    return metrics
