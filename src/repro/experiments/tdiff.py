"""Simulator-derived T_diff (normal throughput variation).

The statistical corpus in :mod:`repro.wehe.corpus` assumes a
coefficient of variation for back-to-back WeHe tests; this module
*measures* it instead, by running pairs of bit-inverted replays minutes
apart on an undifferentiated path with fresh background traffic, then
feeding the pairs through the same t_diff formula.  Run it as
``repro.api.run_sweep(SweepRequest.tdiff(...))``.
"""

from repro.experiments.runner import NetsimReplayService
from repro.stats.montecarlo import relative_mean_difference
from repro.wehe.apps import make_trace
from repro.wehe.traces import bit_invert


def _tdiff_pair(config):
    """One back-to-back replay pair; pure function of its config."""
    service = NetsimReplayService(config)
    trace = bit_invert(make_trace(config.app, config.duration, service._trace_rng))
    first = service.single_replay(trace)
    second = service.single_replay(trace)
    return relative_mean_difference(first, second)
