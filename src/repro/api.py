"""``repro.api`` -- the supported programmatic surface for sweeps.

Every paper table and figure is a sweep of independent cells.  This
module runs both sweep flavours (detection, wild) behind one
request/result pair::

    from repro.api import SweepRequest, run_sweep

    result = run_sweep(SweepRequest.detection(configs, jobs=4))
    records = result.results          # one record per config, in order
    result.hits, result.misses        # cache accounting (0 hits without a store)

    result = run_sweep(
        SweepRequest.wild(store=store, metrics="metrics.jsonl")
    )
    result.metrics                    # repro.obs snapshot (also written as JSONL)

Common options on every request:

- ``jobs``: worker processes (``None`` = all cores, ``1`` = serial);
- ``store`` / ``no_cache``: an :class:`repro.store.ExperimentStore`
  for resumable, checkpointed sweeps;
- ``on_result(index, item, result)``: streaming callback, fired for
  every *freshly computed* cell in completion order with the cell's
  original index, exactly once per cell.  A raising callback is logged
  and skipped, never fatal;
- ``metrics``: ``True`` collects a :mod:`repro.obs` snapshot onto the
  result; a path string additionally exports it as JSONL.  Collection
  never changes any sweep result byte;
- ``cell_timeout`` / ``max_cell_retries`` / ``strict``: process-level
  supervision (see :mod:`repro.parallel.supervisor`).  A parallel cell
  that outlives ``cell_timeout`` seconds has its worker killed and is
  retried; worker deaths and transient exceptions likewise cost one of
  ``max_cell_retries`` attempts.  A cell that exhausts its budget is
  *quarantined*: the sweep completes, the cell's slot in ``results``
  holds a :class:`repro.parallel.CellFailure`, and
  ``SweepResult.failures`` lists it -- unless ``strict=True``, which
  aborts the sweep on the first quarantine instead.  ``SIGINT`` /
  ``SIGTERM`` drain gracefully: in-flight cells finish, checkpoints
  flush, and the partial ``SweepResult`` comes back with
  ``interrupted=True``.
"""

import functools
from dataclasses import dataclass, field

from repro.faults.profile import FaultProfile
from repro.obs import MetricsSink, use_sink, write_jsonl
from repro.obs import metrics as _obs
from repro.parallel.executor import (
    SweepExecutor,
    _detection_cell,
    _run_cached_sweep,
    _run_plain_sweep,
)
from repro.parallel.supervisor import DEFAULT_MAX_CELL_RETRIES


@dataclass(frozen=True)
class SweepRequest:
    """One sweep to run: a kind, its parameters, and execution options.

    Build requests with the :meth:`detection` / :meth:`wild`
    constructors rather than directly -- they enforce
    per-kind parameter validity (e.g. ``fault_profile`` exists only for
    detection sweeps) and build ``params["cells"]``, the list of cells
    the sweep computes.
    """

    kind: str
    params: dict = field(default_factory=dict)
    jobs: object = None
    store: object = None
    no_cache: bool = False
    on_result: object = None
    metrics: object = None
    cell_timeout: object = None
    max_cell_retries: int = DEFAULT_MAX_CELL_RETRIES
    strict: bool = False

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(
                f"unknown sweep kind {self.kind!r}; expected one of {tuple(_KINDS)}"
            )
        if self.on_result is not None and not callable(self.on_result):
            raise TypeError("on_result must be callable")
        if self.cell_timeout is not None and not self.cell_timeout > 0:
            raise ValueError("cell_timeout must be positive (or None)")
        if self.max_cell_retries < 0:
            raise ValueError("max_cell_retries must be >= 0")
        if self.jobs is not None and not self.jobs >= 1:
            raise ValueError(f"jobs must be >= 1 (or None), got {self.jobs!r}")
        if not self.params.get("cells"):
            raise ValueError("a sweep needs at least one cell")

    @classmethod
    def detection(
        cls,
        configs,
        *,
        detectors=None,
        modified=True,
        entropy=0,
        merge_flows=False,
        fault_profile=None,
        fidelity=None,
        jobs=None,
        store=None,
        no_cache=False,
        on_result=None,
        metrics=None,
        cell_timeout=None,
        max_cell_retries=DEFAULT_MAX_CELL_RETRIES,
        strict=False,
    ):
        """A Section-6 FN/FP sweep: one cell per :class:`ScenarioConfig`.

        Results are
        :class:`~repro.experiments.runner.DetectionExperimentRecord`
        objects in config order.  ``fault_profile`` injects per-cell
        failures seeded from each cell's own ``config.seed``.
        ``fidelity`` (``"packet"``/``"hybrid"``), when given, overrides
        every config's own fidelity field (a config that already has it
        is kept as it is, not copied).  Every other scenario knob
        lives on the configs themselves.
        """
        configs = list(configs)
        if isinstance(fault_profile, str):
            FaultProfile.parse(fault_profile)  # a bad spec fails before any cell runs
        if fidelity is not None:
            configs = [
                config if config.fidelity == fidelity else config.with_(fidelity=fidelity)
                for config in configs
            ]
        return cls(
            kind="detection",
            params={
                "cells": configs,
                "detectors": detectors,
                "modified": modified,
                "entropy": entropy,
                "merge_flows": merge_flows,
                "fault_profile": fault_profile,
            },
            jobs=jobs,
            store=store,
            no_cache=no_cache,
            on_result=on_result,
            metrics=metrics,
            cell_timeout=cell_timeout,
            max_cell_retries=max_cell_retries,
            strict=strict,
        )

    @classmethod
    def wild(
        cls,
        isp_names=None,
        *,
        apps=("netflix",),
        seeds=range(3),
        sanity_check=False,
        fidelity="packet",
        jobs=None,
        store=None,
        no_cache=False,
        on_result=None,
        metrics=None,
        cell_timeout=None,
        max_cell_retries=DEFAULT_MAX_CELL_RETRIES,
        strict=False,
    ):
        """A Section-5 wild-ISP sweep over ISPs x apps x seeds.

        ``isp_names=None`` means every Table-1 ISP.  Results are
        per-cell summary dicts in grid order (isp-major).
        """
        if isp_names is None:
            from repro.experiments.wild import WILD_ISPS

            isp_names = WILD_ISPS
        apps, seeds = tuple(apps), list(seeds)
        return cls(
            kind="wild",
            params={
                "cells": [
                    (isp, app, seed)
                    for isp in isp_names
                    for app in apps
                    for seed in seeds
                ],
                "sanity_check": sanity_check,
                "fidelity": fidelity,
            },
            jobs=jobs,
            store=store,
            no_cache=no_cache,
            on_result=on_result,
            metrics=metrics,
            cell_timeout=cell_timeout,
            max_cell_retries=max_cell_retries,
            strict=strict,
        )


@dataclass(frozen=True)
class SweepResult:
    """What :func:`run_sweep` returns.

    ``results`` is a records list (detection) or a summary-dict list
    (wild), in cell order.
    ``hits``/``misses`` count cache activity (``hits == 0`` when no
    store was used); ``metrics`` is a :mod:`repro.obs` snapshot dict
    when the request asked for one, else ``None``.

    ``failures`` holds one :class:`repro.parallel.CellFailure` per
    quarantined cell (each also sits inline at its position in
    ``results``); ``interrupted`` is True when a drain signal ended the
    sweep early, in which case never-computed cells are ``None`` in
    ``results``.  ``ok`` is the one-glance health check.
    """

    kind: str
    results: object
    cells: int
    hits: int
    misses: int
    metrics: object = None
    failures: tuple = ()
    interrupted: bool = False

    @property
    def ok(self):
        """True when the sweep completed with no quarantined cells."""
        return not self.failures and not self.interrupted

    def __len__(self):
        return len(self.results)

    def __iter__(self):
        return iter(self.results)


@dataclass(frozen=True)
class _Kind:
    """What one sweep kind plugs into :func:`run_sweep`.

    ``task(cell)`` computes one cell and must pickle (pool workers run
    it); ``key(cell, fingerprint=, schema_version=)`` is the cell's
    store key; ``encode``/``decode`` translate a result to and from the
    store's plain-JSON payload; ``ledger`` names the kind in the store's
    run ledger.
    """

    task: object
    key: object
    encode: object
    decode: object
    ledger: str


def _detection_kind(params):
    # Timing harnesses patch repro.store.detection_cache_key, so look
    # it up per sweep, not at import.
    from repro.store import detection_cache_key, record_from_dict, record_to_dict

    detectors = params["detectors"]
    knobs = {
        name: params[name]
        for name in ("modified", "entropy", "merge_flows", "fault_profile")
    }
    return _Kind(
        task=functools.partial(_detection_cell, detectors=detectors, **knobs),
        key=functools.partial(
            detection_cache_key,
            detectors=sorted(detectors) if detectors else ["loss_trend"],
            **knobs,
        ),
        encode=record_to_dict,
        decode=record_from_dict,
        ledger="detection_sweep",
    )


def _wild_kind(params):
    from repro.experiments.wild import _wild_cell
    from repro.store import wild_cache_key
    from repro.store.serialize import plain

    knobs = {"sanity_check": params["sanity_check"], "fidelity": params["fidelity"]}
    return _Kind(
        task=functools.partial(_wild_cell, **knobs),
        key=lambda cell, **stamp: wild_cache_key(*cell, **knobs, **stamp),
        encode=lambda summary: {"kind": "wild", "cell": plain(summary)},
        decode=lambda payload: payload["cell"],
        ledger="wild_sweep",
    )


_KINDS = {
    "detection": _detection_kind,
    "wild": _wild_kind,
}


def _execute(request):
    """Run every cell of ``request``; returns the 5-tuple
    ``(results, hits, misses, failures, interrupted)``."""
    kind = _KINDS[request.kind](request.params)
    cells = request.params["cells"]
    store = request.store
    executor = SweepExecutor(
        request.jobs,
        cell_timeout=request.cell_timeout,
        max_cell_retries=request.max_cell_retries,
        strict=request.strict,
    )
    if store is None:
        return _run_plain_sweep(
            kind.task, cells, executor, on_result=request.on_result
        )
    keys = [
        kind.key(
            cell,
            fingerprint=store.fingerprint,
            schema_version=store.schema_version,
        )
        for cell in cells
    ]
    return _run_cached_sweep(
        kind.task,
        cells,
        keys,
        store,
        executor,
        kind=kind.ledger,
        decode=kind.decode,
        encode=kind.encode,
        no_cache=request.no_cache,
        on_result=request.on_result,
    )


def run_sweep(request):
    """Run one :class:`SweepRequest`; returns a :class:`SweepResult`.

    When the request asks for metrics, the whole sweep runs under a
    fresh :class:`repro.obs.MetricsSink` (worker-process deltas are
    merged in by the executor), the snapshot lands on
    ``SweepResult.metrics``, and -- if ``metrics`` is a path string --
    is also written there as JSONL.  If an outer sink was already
    active, the sweep's snapshot is folded into it too, so nested
    collection composes.  Metrics never alter sweep results.
    """
    collect = request.metrics is not None and request.metrics is not False
    if not collect:
        results, hits, misses, failures, interrupted = _execute(request)
        snapshot = None
    else:
        outer = _obs.SINK if _obs.ENABLED else None
        with use_sink(MetricsSink()) as sink:
            results, hits, misses, failures, interrupted = _execute(request)
            snapshot = sink.snapshot()
        if isinstance(request.metrics, str) and request.metrics:
            write_jsonl(snapshot, request.metrics)
        if outer is not None:
            outer.merge(snapshot)
    return SweepResult(
        kind=request.kind,
        results=results,
        cells=hits + misses,
        hits=hits,
        misses=misses,
        metrics=snapshot,
        failures=tuple(failures),
        interrupted=interrupted,
    )


__all__ = ["SweepRequest", "SweepResult", "run_sweep"]
