"""Simulator-derived T_diff (normal throughput variation).

The statistical corpus in :mod:`repro.wehe.corpus` assumes a
coefficient of variation for back-to-back WeHe tests; this module
*measures* it instead, by running pairs of bit-inverted replays minutes
apart on an undifferentiated path with fresh background traffic, then
feeding the pairs through the same t_diff formula.
"""

import numpy as np

from repro.experiments.runner import NetsimReplayService
from repro.experiments.scenarios import ScenarioConfig
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


def _tdiff_sweep(
    n_pairs=25,
    app="netflix",
    duration=15.0,
    base_seed=5000,
    fidelity="packet",
    jobs=1,
    store=None,
    no_cache=False,
    on_result=None,
    cell_timeout=None,
    max_cell_retries=None,
    strict=False,
):
    """T_diff-sweep implementation; returns the 5-tuple
    ``(values, hits, misses, failures, interrupted)``.

    ``values`` is a float ndarray of ``n_pairs`` t_diff samples -- or a
    plain list when cells were quarantined or the sweep was drained
    (``CellFailure``/``None`` entries do not belong in a float array).
    The engine behind :func:`repro.api.run_sweep`; call that instead.
    """
    from repro.parallel import SweepExecutor
    from repro.parallel.executor import _run_cached_sweep, _run_plain_sweep
    from repro.parallel.supervisor import DEFAULT_MAX_CELL_RETRIES

    if max_cell_retries is None:
        max_cell_retries = DEFAULT_MAX_CELL_RETRIES
    executor = SweepExecutor(
        jobs,
        cell_timeout=cell_timeout,
        max_cell_retries=max_cell_retries,
        strict=strict,
    )
    configs = [
        ScenarioConfig(
            app=app,
            limiter=None,
            input_rate_factor=1.5,
            duration=duration,
            seed=base_seed + pair,
            fidelity=fidelity,
        )
        for pair in range(n_pairs)
    ]
    if store is None:
        values, hits, misses, failures, interrupted = _run_plain_sweep(
            _tdiff_pair, configs, executor, on_result=on_result
        )
    else:
        from repro.store import tdiff_cache_key

        keys = [
            tdiff_cache_key(
                config,
                fingerprint=store.fingerprint,
                schema_version=store.schema_version,
            )
            for config in configs
        ]
        values, hits, misses, failures, interrupted = _run_cached_sweep(
            _tdiff_pair,
            configs,
            keys,
            store,
            executor,
            kind="tdiff",
            decode=lambda payload: payload["value"],
            encode=lambda value: {"kind": "tdiff", "value": float(value)},
            no_cache=no_cache,
            on_result=on_result,
        )
    if not failures and not interrupted:
        values = np.asarray(values)
    return values, hits, misses, failures, interrupted
