"""Batch executors behind the service: the real sweep engine and a
deterministic synthetic stand-in.

An *engine* takes one dispatched batch and returns one outcome per
request, aligned with ``batch.requests``::

    ("ok", payload_dict)      # a verdict; payload is plain JSON
    ("failed", reason)        # structured failure, never an exception

Engines are synchronous -- the asyncio front-end runs them in a worker
thread, the virtual-time load generator asks :meth:`duration` instead
of running anything.

- :class:`SweepEngine` routes batches through
  :func:`repro.api.run_sweep`, inheriting the supervised executor's
  whole robustness envelope (worker crash recovery, per-cell timeouts,
  quarantine) plus store checkpointing; the batch's deadline-derived
  ``cell_timeout`` propagates into the supervisor's watchdog.
- :class:`SyntheticEngine` produces deterministic verdicts after a
  deterministic per-cell service time (pure SHA-256 draws via
  :func:`repro.faults.chaos.uniform_draw`) -- the overload suite's
  workhorse, since two runs of a load scenario must make identical
  admission decisions.
"""

import time

from repro.faults.chaos import uniform_draw

#: Reference replay duration (seconds of simulated time) that
#: ``mean_service_s`` is quoted against: a cell of this duration takes
#: ``mean_service_s`` on average; longer replays cost proportionally.
REFERENCE_DURATION_S = 8.0

#: Supervision retry budget per cell under :class:`SweepEngine`; a cell
#: past it is quarantined and its request gets ``FAILED``.
MAX_CELL_RETRIES = 1


class SweepEngine:
    """The production engine: batches become detection sweeps.

    Parameters:
        store: optional :class:`repro.store.ExperimentStore`; cells
            checkpoint as they complete and identical resubmissions hit
            the cache inside :func:`run_sweep` itself.
        jobs: worker processes per batch (cells within a batch run in
            parallel under the supervised executor).
    """

    def __init__(self, store=None, jobs=1):
        self.store = store
        self.jobs = jobs

    def run(self, batch):
        from repro.api import SweepRequest, run_sweep
        from repro.parallel import CellFailure

        configs = [request.scenario for request in batch.requests]
        try:
            result = run_sweep(
                SweepRequest.detection(
                    configs,
                    jobs=self.jobs,
                    store=self.store,
                    cell_timeout=batch.cell_timeout,
                    max_cell_retries=MAX_CELL_RETRIES,
                )
            )
        except Exception as exc:
            reason = f"engine error: {type(exc).__name__}: {exc}"
            return [("failed", reason)] * len(configs)
        from repro.store.serialize import record_to_dict

        outcomes = []
        for value in result.results:
            if value is None:
                outcomes.append(("failed", "engine interrupted before this cell"))
            elif isinstance(value, CellFailure):
                outcomes.append(("failed", f"quarantined: {value.error}"))
            else:
                outcomes.append(("ok", record_to_dict(value)))
        return outcomes


class SyntheticEngine:
    """Deterministic fake executor for overload and robustness tests.

    Per-request service time is ``mean_service_s`` scaled by the cell's
    simulated duration and a deterministic uniform factor in
    ``[1 - jitter, 1 + jitter]``; batch duration is the max over the
    batch (cells run in parallel, like ``jobs >= batch`` under the real
    engine).  Every cell succeeds.  ``realtime=True`` makes :meth:`run`
    actually sleep for the computed duration, for wall-clock server
    tests.
    """

    def __init__(self, mean_service_s=0.5, jitter=0.5, seed=0, realtime=False):
        if mean_service_s <= 0:
            raise ValueError("mean_service_s must be positive")
        if not 0.0 <= jitter < 1.0:
            raise ValueError("jitter must be in [0, 1)")
        self.mean_service_s = mean_service_s
        self.jitter = jitter
        self.seed = seed
        self.realtime = realtime

    def cell_time(self, request):
        """Deterministic service seconds for one request."""
        draw = uniform_draw(
            self.seed, "cell_time", request.submission.tenant,
            request.submission.client, request.id,
        )
        factor = 1.0 + self.jitter * (2.0 * draw - 1.0)
        scale = request.submission.duration / REFERENCE_DURATION_S
        return self.mean_service_s * scale * factor

    def duration(self, batch):
        """Wall-clock seconds the whole batch takes."""
        return max(self.cell_time(request) for request in batch.requests)

    def outcomes(self, batch):
        results = []
        for request in batch.requests:
            scenario = request.scenario
            detected = scenario.limiter in ("common", "perflow")
            results.append(
                (
                    "ok",
                    {
                        "kind": "synthetic",
                        "detected": detected,
                        "app": scenario.app,
                        "limiter": scenario.limiter,
                        "seed": scenario.seed,
                        "cell_time_s": round(self.cell_time(request), 6),
                    },
                )
            )
        return results

    def run(self, batch):
        if self.realtime:
            time.sleep(self.duration(batch))
        return self.outcomes(batch)
