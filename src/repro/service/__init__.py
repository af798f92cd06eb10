"""``repro.service`` -- the overload-safe WeHeY localization front-end.

A long-lived asyncio service that accepts WeHe-style test submissions
(tenant, client, app, scenario knobs) over newline-delimited JSON,
batches compatible requests into sweep cells, runs them on the
supervised executor via :mod:`repro.api`, and streams verdicts back.
Designed to stay *predictable under overload*:

- **Admission control** -- bounded queue + per-tenant token buckets;
  excess load gets an explicit ``REJECTED_OVERLOAD``.
- **Backpressure & fairness** -- per-tenant FIFOs served deficit
  round-robin in units of simulated replay seconds; one hot tenant
  cannot starve the rest.
- **Deadlines** -- each submission carries a budget that expires queued
  work without burning a worker and bounds dispatched cells via
  ``cell_timeout``.
- **Graceful degradation** -- a HEALTHY/DEGRADED/SHEDDING governor on
  queue depth with hysteresis, plus a circuit breaker around the
  executor.
- **Crash-safe drain** -- ``SIGTERM`` finishes in-flight cells, flushes
  checkpoints, and persists the pending queue to the store ledger; a
  restarted service resumes it.

Layering (each module imports only downward)::

    protocol     submissions, responses, JSONL framing
    admission    bounded queue + token buckets
    fairqueue    deficit round-robin
    degradation  governor + circuit breaker
    engine       batch executors (real sweep / deterministic synthetic)
    core         the sans-IO control plane (everything above, no clock)
    server       asyncio shell: sockets, threads, signals

The core is sans-IO (explicit ``now`` everywhere), which is what lets
:mod:`repro.loadgen` replay overload scenarios in virtual time with
byte-identical admission decisions run-to-run.

A deployment picks seven settings (:class:`ServiceConfig`: queue bound,
tenant rate and burst, batch size, concurrent batches, recovery dwell,
breaker cooldown); everything else is a constant in
:mod:`repro.service.core`.
"""

from repro.service.admission import AdmissionController, RequestTokenBucket
from repro.service.core import Batch, QueuedRequest, ServiceConfig, ServiceCore
from repro.service.degradation import CircuitBreaker, OverloadGovernor, ServiceState
from repro.service.engine import SweepEngine, SyntheticEngine
from repro.service.fairqueue import DeficitRoundRobin
from repro.service.protocol import (
    MalformedSubmission,
    Response,
    Status,
    Submission,
    parse_submission,
)
from repro.service.server import ServiceServer, serve

__all__ = [
    "AdmissionController",
    "Batch",
    "CircuitBreaker",
    "DeficitRoundRobin",
    "MalformedSubmission",
    "OverloadGovernor",
    "QueuedRequest",
    "RequestTokenBucket",
    "Response",
    "ServiceConfig",
    "ServiceCore",
    "ServiceServer",
    "ServiceState",
    "Status",
    "Submission",
    "SweepEngine",
    "SyntheticEngine",
    "parse_submission",
    "serve",
]
