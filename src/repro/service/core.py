"""The sans-IO service core: admission, queueing, dispatch, accounting.

:class:`ServiceCore` is the entire control plane of the WeHeY service
with the clock and the sockets factored out.  Every method takes an
explicit ``now``; no wall time, randomness, or IO happens inside.  The
asyncio server (:mod:`repro.service.server`) wraps it with real sockets
and a real clock; the load generator (:mod:`repro.loadgen`) wraps it
with a virtual-time event loop -- and because the core is a pure
function of its call sequence, two identical load traces produce
byte-identical admission-decision sequences (asserted in
``tests/loadgen/`` and by the ``service`` claim).

Lifecycle of one submission::

    submit(sub, now) -> request id
      |- cache hit            -> VERDICT (cached=True), skips the queue
      |- draining / shedding /
      |  degraded (miss)      -> REJECTED_OVERLOAD
      |- queue full /
      |  tenant bucket empty  -> REJECTED_OVERLOAD
      '- admitted             -> queued under its tenant's FIFO (DRR)
    next_batch(now)           -> expired entries -> DEADLINE_EXCEEDED,
                                 else a Batch (breaker + concurrency
                                 permitting) with a deadline-derived
                                 cell_timeout
    batch_done(batch, .., now)-> VERDICT / FAILED / DEADLINE_EXCEEDED

Terminal responses are appended to :attr:`ServiceCore.outbox`; the
shell drains it after every core call and routes responses by request
id.  Exactly one terminal response is emitted per submission -- the
accounting invariant the whole test suite leans on.
"""

from collections import OrderedDict
from dataclasses import dataclass, field

from repro.obs import metrics as _obs
from repro.service.admission import AdmissionController
from repro.service.degradation import (
    CircuitBreaker,
    LatencyWindow,
    OverloadGovernor,
    ServiceState,
)
from repro.service.fairqueue import DeficitRoundRobin
from repro.service.protocol import Response, Status
from repro.store.keys import detection_cache_key

_INF = float("inf")

#: obs gauge values for the service state machine.
STATE_GAUGE = {
    ServiceState.HEALTHY: 0.0,
    ServiceState.DEGRADED: 1.0,
    ServiceState.SHEDDING: 2.0,
}


@dataclass(frozen=True)
class ServiceConfig:
    """All tuning knobs of the service core, with smoke-test defaults.

    ``degraded_queue`` / ``shed_queue`` default to 50% / 85% of
    ``max_queue`` so the governor always trips strictly before
    admission's hard bound -- degradation is meant to be the *soft*
    envelope inside the hard one.
    """

    max_queue: int = 64
    tenant_rate: float = None  # requests/s per tenant; None = uncapped
    tenant_burst: float = 8.0
    batch_max: int = 4  # cells per dispatched batch
    max_concurrent_batches: int = 2
    drr_quantum: float = 8.0  # simulated replay seconds per round
    degraded_queue: int = None
    shed_queue: int = None
    degraded_p99_s: float = None
    shed_p99_s: float = None
    recover_fraction: float = 0.5
    recover_dwell_s: float = 2.0
    breaker_threshold: int = 3
    breaker_cooldown_s: float = 30.0
    latency_window: int = 128
    memo_size: int = 1024  # in-memory verdict cache entries

    def resolved_degraded_queue(self):
        if self.degraded_queue is not None:
            return self.degraded_queue
        return max(1, self.max_queue // 2)

    def resolved_shed_queue(self):
        if self.shed_queue is not None:
            return self.shed_queue
        return max(self.resolved_degraded_queue(), (self.max_queue * 17) // 20)


@dataclass
class QueuedRequest:
    """One admitted submission waiting for (or in) dispatch."""

    id: str
    submission: object
    scenario: object
    cache_key: str
    admitted_at: float
    deadline_at: float

    @property
    def tenant(self):
        return self.submission.tenant

    def remaining(self, now):
        return self.deadline_at - now


@dataclass
class Batch:
    """One engine dispatch: up to ``batch_max`` compatible requests.

    ``cell_timeout`` is the *largest* remaining deadline budget in the
    batch -- no cell may burn a worker past the point where every
    request in the batch has already expired; per-request deadlines are
    re-checked at completion.
    """

    id: int
    requests: list = field(default_factory=list)
    dispatched_at: float = 0.0
    cell_timeout: float = None


class ServiceCore:
    """Deterministic service control plane (see module docstring).

    Parameters:
        config: a :class:`ServiceConfig` (default-constructed if None).
        store: optional :class:`repro.store.ExperimentStore` consulted
            (read-only from the core's point of view) for cached
            verdicts; fresh verdicts land in the in-memory memo either
            way, which is what DEGRADED mode serves from.
    """

    def __init__(self, config=None, store=None):
        self.config = config or ServiceConfig()
        self.store = store
        self.admission = AdmissionController(
            self.config.max_queue,
            tenant_rate=self.config.tenant_rate,
            tenant_burst=self.config.tenant_burst,
        )
        self.queue = DeficitRoundRobin(quantum=self.config.drr_quantum)
        self.governor = OverloadGovernor(
            self.config.resolved_degraded_queue(),
            self.config.resolved_shed_queue(),
            degraded_p99_s=self.config.degraded_p99_s,
            shed_p99_s=self.config.shed_p99_s,
            recover_fraction=self.config.recover_fraction,
            recover_dwell_s=self.config.recover_dwell_s,
        )
        self.breaker = CircuitBreaker(
            threshold=self.config.breaker_threshold,
            cooldown_s=self.config.breaker_cooldown_s,
        )
        self.latency = LatencyWindow(self.config.latency_window)
        self.outbox = []  # terminal Responses awaiting the shell
        self.decision_log = []  # (request_id, tenant, decision, detail)
        self.counts = {status: 0 for status in (
            Status.VERDICT, Status.REJECTED_OVERLOAD,
            Status.DEADLINE_EXCEEDED, Status.FAILED,
        )}
        self.tenant_counts = {}  # tenant -> {status: n}
        self.inflight = {}  # batch id -> Batch
        self.draining = False
        self._memo = OrderedDict()  # cache_key -> verdict payload
        # No queued deadline is earlier than this; see expire().
        self._earliest_deadline = _INF
        self._seq = 0
        self._batch_seq = 0

    # -- accounting -----------------------------------------------------

    def _log(self, request_id, tenant, decision, detail=""):
        self.decision_log.append((request_id, tenant, decision, detail))

    def _respond(self, response):
        self.counts[response.status] += 1
        per_tenant = self.tenant_counts.setdefault(response.tenant, {})
        per_tenant[response.status] = per_tenant.get(response.status, 0) + 1
        self.outbox.append(response)
        if _obs.ENABLED:
            _obs.SINK.inc(f"service.responses.{response.status}")
            if response.status == Status.REJECTED_OVERLOAD:
                _obs.SINK.inc(f"service.rejected.{response.reason}")

    def take_responses(self):
        """Drain and return the accumulated terminal responses."""
        out, self.outbox = self.outbox, []
        return out

    def inflight_requests(self):
        return sum(len(batch.requests) for batch in self.inflight.values())

    def _memo_get(self, key):
        payload = self._memo.get(key)
        if payload is not None:
            self._memo.move_to_end(key)
            return payload
        if self.store is not None:
            return self.store.get(key)
        return None

    def _memo_put(self, key, payload):
        self._memo[key] = payload
        self._memo.move_to_end(key)
        while len(self._memo) > self.config.memo_size:
            self._memo.popitem(last=False)

    # -- ingress --------------------------------------------------------

    def submit(self, submission, now):
        """Admit one validated :class:`Submission`; returns its request id.

        The terminal response -- immediate (cached verdict, rejection)
        or eventual (queued work) -- arrives via :attr:`outbox`.
        """
        self._seq += 1
        request_id = submission.id or f"req-{self._seq:06d}"
        tenant = submission.tenant

        def reject(reason):
            self._log(request_id, tenant, "reject", reason)
            self._respond(Response(
                id=request_id, status=Status.REJECTED_OVERLOAD,
                tenant=tenant, reason=reason, state=self.governor.state,
            ))
            return request_id

        if self.draining:
            return reject("draining")
        scenario = submission.to_scenario()
        key = detection_cache_key(scenario)
        cached = self._memo_get(key)
        if cached is not None:
            # Cache hits are served in every state: they cost no worker
            # and no queue slot, which is exactly why DEGRADED exists.
            self._log(request_id, tenant, "cached", key[:12])
            self._respond(Response(
                id=request_id, status=Status.VERDICT, tenant=tenant,
                state=self.governor.state, verdict=cached, cached=True,
            ))
            return request_id
        if self.governor.state == ServiceState.SHEDDING:
            return reject("shedding")
        if self.governor.state == ServiceState.DEGRADED:
            return reject("degraded")
        ok, reason = self.admission.admit(tenant, len(self.queue), now)
        if not ok:
            return reject(reason)
        self._push(QueuedRequest(
            id=request_id,
            submission=submission,
            scenario=scenario,
            cache_key=key,
            admitted_at=now,
            deadline_at=now + submission.deadline_s,
        ))
        self._log(request_id, tenant, "accept", "")
        return request_id

    def _push(self, request):
        """Queue ``request`` under its tenant; keeps the deadline bound."""
        self.queue.push(request.tenant, request, cost=request.submission.duration)
        if request.deadline_at < self._earliest_deadline:
            self._earliest_deadline = request.deadline_at

    def malformed(self, request_id, reason, tenant=""):
        """Terminal ``FAILED`` for a submission that never parsed.

        Keeps the one-response-per-submission invariant intact for
        garbage input (bad JSON, unknown knobs, chaos-injected noise).
        """
        self._seq += 1
        request_id = request_id or f"req-{self._seq:06d}"
        self._log(request_id, tenant or "-", "malformed", reason)
        self._respond(Response(
            id=request_id, status=Status.FAILED, tenant=tenant,
            reason=f"malformed submission: {reason}",
            state=self.governor.state,
        ))
        return request_id

    # -- deadline sweeper -----------------------------------------------

    def expire(self, now):
        """Expel queued requests whose deadline has passed.

        Each becomes a ``DEADLINE_EXCEEDED`` response without ever
        touching a worker -- the cheap half of deadline propagation.

        No queued deadline precedes ``_earliest_deadline`` (every push
        lowers it; a dispatched request only leaves it low), so until
        ``now`` reaches it there is nothing to walk.  A walk resets it
        to the earliest deadline left in the queue.
        """
        if now < self._earliest_deadline:
            return 0
        earliest = _INF

        def due(_tenant, request):
            nonlocal earliest
            deadline = request.deadline_at
            if deadline <= now:
                return True
            if deadline < earliest:
                earliest = deadline
            return False

        removed = self.queue.remove_if(due)
        self._earliest_deadline = earliest
        for _tenant, request in removed:
            self._log(request.id, request.tenant, "expire", "queued")
            self._respond(Response(
                id=request.id, status=Status.DEADLINE_EXCEEDED,
                tenant=request.tenant, reason="expired in queue",
                state=self.governor.state,
                queued_s=now - request.admitted_at,
            ))
        return len(removed)

    # -- dispatch -------------------------------------------------------

    def next_batch(self, now):
        """The next batch to hand to the engine, or None.

        None when the queue is empty, concurrency is saturated, or the
        circuit breaker is open.  Expired entries are swept first so a
        returned batch only ever contains live requests.
        """
        self.expire(now)
        if not len(self.queue):
            return None
        if len(self.inflight) >= self.config.max_concurrent_batches:
            return None
        if not self.breaker.allow_dispatch(now):
            return None
        requests = []
        while len(requests) < self.config.batch_max:
            entry = self.queue.pop()
            if entry is None:
                break
            requests.append(entry[1])
        # pop() cannot return expired entries: expire() just swept them.
        self._batch_seq += 1
        budget = max(request.remaining(now) for request in requests)
        batch = Batch(
            id=self._batch_seq,
            requests=requests,
            dispatched_at=now,
            cell_timeout=max(budget, 1e-3),
        )
        self.inflight[batch.id] = batch
        self.tick(now)
        return batch

    def batch_done(self, batch, outcomes, now):
        """Account one finished batch; ``outcomes`` aligns with its requests.

        Each outcome is ``("ok", payload)`` or ``("failed", reason)``
        (see :mod:`repro.service.engine`).  Any failed outcome counts
        against the circuit breaker; a clean batch resets it.
        """
        self.inflight.pop(batch.id, None)
        any_failed = False
        for request, (kind, payload) in zip(batch.requests, outcomes):
            queued_s = batch.dispatched_at - request.admitted_at
            service_s = now - batch.dispatched_at
            if kind == "ok":
                self._memo_put(request.cache_key, payload)
                if now >= request.deadline_at:
                    self._respond(Response(
                        id=request.id, status=Status.DEADLINE_EXCEEDED,
                        tenant=request.tenant,
                        reason="completed after deadline",
                        state=self.governor.state,
                        queued_s=queued_s, service_s=service_s,
                    ))
                    continue
                self.latency.observe(now - request.admitted_at)
                self._respond(Response(
                    id=request.id, status=Status.VERDICT,
                    tenant=request.tenant, state=self.governor.state,
                    verdict=payload, queued_s=queued_s, service_s=service_s,
                ))
            else:
                any_failed = True
                self._respond(Response(
                    id=request.id, status=Status.FAILED,
                    tenant=request.tenant, reason=payload,
                    state=self.governor.state,
                    queued_s=queued_s, service_s=service_s,
                ))
        if any_failed:
            self.breaker.record_failure(now)
        else:
            self.breaker.record_success(now)
        if _obs.ENABLED:
            _obs.SINK.inc("service.batches")
            _obs.SINK.observe("service.batch_service_s", now - batch.dispatched_at)
        self.tick(now)

    def batch_failed(self, batch, reason, now):
        """The shell could not run the batch at all (engine thread blew up)."""
        outcomes = [("failed", reason)] * len(batch.requests)
        self.batch_done(batch, outcomes, now)

    # -- periodic upkeep ------------------------------------------------

    def tick(self, now):
        """Sweep deadlines, advance the governor, publish gauges."""
        self.expire(now)
        state = self.governor.update(
            now, len(self.queue), self.latency.quantile(0.99)
        )
        if _obs.ENABLED:
            _obs.SINK.set_gauge("service.state", STATE_GAUGE[state])
            _obs.SINK.set_gauge("service.queue_depth", len(self.queue))
            _obs.SINK.set_gauge("service.inflight", self.inflight_requests())
        return state

    # -- graceful drain -------------------------------------------------

    def begin_drain(self, now):
        """Stop admitting; in-flight batches finish, the queue persists."""
        self.draining = True
        self._log("-", "-", "drain", f"queued={len(self.queue)}")

    def pending_payloads(self, now):
        """Remove and return the queued work as plain-JSON resume payloads.

        Entries carry the *remaining* deadline budget, not the absolute
        deadline -- wall time spent down does not count against a
        submission.  Order is DRR-fair order, so a restarted service
        resumes exactly as fairly as a live one would have dispatched.
        """
        payloads = []
        for _tenant, request in self.queue.drain_all():
            payloads.append({
                "id": request.id,
                "submission": request.submission.as_dict(),
                "remaining_s": max(request.remaining(now), 0.0),
            })
        return payloads

    def resume(self, payloads, now):
        """Re-queue persisted submissions (admission already happened).

        Entries whose remaining budget is gone become immediate
        ``DEADLINE_EXCEEDED`` responses -- still exactly one terminal
        response, just issued by the next process.
        """
        from repro.service.protocol import parse_submission

        resumed = 0
        for payload in payloads:
            raw = dict(payload["submission"])
            raw.pop("id", None)
            submission = parse_submission(raw)
            request_id = payload.get("id") or submission.id
            remaining = float(payload.get("remaining_s", submission.deadline_s))
            if remaining <= 0:
                self._log(request_id, submission.tenant, "expire", "resume")
                self._respond(Response(
                    id=request_id, status=Status.DEADLINE_EXCEEDED,
                    tenant=submission.tenant, reason="expired while down",
                    state=self.governor.state,
                ))
                continue
            scenario = submission.to_scenario()
            self._push(QueuedRequest(
                id=request_id,
                submission=submission,
                scenario=scenario,
                cache_key=detection_cache_key(scenario),
                admitted_at=now,
                deadline_at=now + remaining,
            ))
            self._log(request_id, submission.tenant, "resume", "")
            resumed += 1
        return resumed
