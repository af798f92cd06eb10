"""The virtual-time driver: replay an arrival trace through a ServiceCore.

No sockets, no threads, no wall clock: a heapq event loop advances
virtual time through three event kinds (``arrival``, ``batch_done``,
``tick``) and calls the same sans-IO core methods the asyncio shell
calls.  Engine "execution" is a duration query (the synthetic engine's
deterministic cell-time model), so a 30-minute overload scenario
replays in milliseconds -- and, because every input is seeded and every
decision is the core's, two runs of the same scenario produce
*identical* admission-decision sequences (asserted by the tests and
by the ``service`` claim, :mod:`repro.claims.service`).

Chaos: a :class:`repro.faults.chaos.ServiceChaosProfile` maps request
indices to client misbehaviours -- ``malformed`` arrivals reach the
core as garbage, ``slow_client`` arrivals are delayed by the profile's
stall, ``disconnect`` submissions lose their response (delivery fails;
the core's terminal accounting must still cover them).
"""

import heapq
from dataclasses import dataclass, field

from repro.service.protocol import MalformedSubmission, Status, parse_submission

#: Virtual cadence of ``core.tick``: it drives deadline expiry, governor
#: recovery and breaker cooldowns when no traffic arrives.
TICK_INTERVAL_S = 0.5


@dataclass
class LoadResult:
    """Everything a scenario run produced.

    ``completions`` is ``(virtual_time, Response, delivered)`` in
    completion order -- ``delivered`` is False for responses whose
    client had chaos-disconnected.  ``submitted`` maps request id ->
    arrival time for every request that reached the core.
    """

    completions: list = field(default_factory=list)
    submitted: dict = field(default_factory=dict)
    duration_s: float = 0.0

    def by_status(self):
        counts = {}
        for _t, response, _delivered in self.completions:
            counts[response.status] = counts.get(response.status, 0) + 1
        return counts

    def check_one_terminal_response_each(self):
        """The accounting invariant: exactly one terminal response per
        submission.  Raises AssertionError with the delta otherwise."""
        seen = {}
        for _t, response, _delivered in self.completions:
            seen[response.id] = seen.get(response.id, 0) + 1
        missing = [rid for rid in self.submitted if rid not in seen]
        duplicated = [rid for rid, n in seen.items() if n > 1]
        unknown = [rid for rid in seen if rid not in self.submitted]
        if missing or duplicated or unknown:
            raise AssertionError(
                f"response accounting broken: missing={missing[:5]} "
                f"duplicated={duplicated[:5]} unknown={unknown[:5]}"
            )
        return len(seen)


class VirtualService:
    """Drive one core + synthetic engine through a trace in virtual time.

    Parameters:
        core: a fresh :class:`~repro.service.core.ServiceCore`.
        engine: an engine exposing ``outcomes(batch)`` and
            ``duration(batch)`` (i.e. :class:`SyntheticEngine`).
        chaos: optional :class:`ServiceChaosProfile`.
    """

    def __init__(self, core, engine, chaos=None):
        self.core = core
        self.engine = engine
        self.chaos = chaos

    def run(self, trace, settle_s=120.0):
        """Replay ``trace`` (sorted ``(time, raw_submission)`` pairs).

        After the last arrival the clock keeps ticking up to
        ``settle_s`` longer so queued work either completes or expires
        -- the run only ends when every submission is terminal (or the
        settle budget is exhausted, which the invariant check would
        then flag).
        """
        result = LoadResult()
        heap = []
        seq = 0
        dropped = set()

        def push(t, kind, payload):
            nonlocal seq
            seq += 1
            heapq.heappush(heap, (t, seq, kind, payload))

        horizon = 0.0
        for index, (t, raw) in enumerate(trace):
            plan = self.chaos.plan(index) if self.chaos else None
            if plan == "slow_client":
                t = t + self.chaos.slow_seconds
            push(t, "arrival", (raw, plan))
            horizon = max(horizon, t)
        result.duration_s = horizon
        push(TICK_INTERVAL_S, "tick", None)
        deadline_horizon = horizon + settle_s

        def dispatch(now):
            while True:
                batch = self.core.next_batch(now)
                if batch is None:
                    return
                outcomes = self.engine.outcomes(batch)
                push(now + self.engine.duration(batch), "batch_done",
                     (batch, outcomes))

        def collect(now):
            for response in self.core.take_responses():
                result.completions.append(
                    (now, response, response.id not in dropped)
                )

        while heap:
            now, _seq, kind, payload = heapq.heappop(heap)
            if kind == "arrival":
                raw, plan = payload
                if plan == "malformed":
                    rid = self.core.malformed(
                        None, "chaos-injected garbage frame",
                        tenant=raw.get("tenant", ""),
                    )
                else:
                    try:
                        submission = parse_submission(raw)
                    except MalformedSubmission as exc:
                        rid = self.core.malformed(
                            raw.get("id"), exc.reason,
                            tenant=str(raw.get("tenant", "")),
                        )
                    else:
                        rid = self.core.submit(submission, now)
                        if plan == "disconnect":
                            dropped.add(rid)
                result.submitted[rid] = now
            elif kind == "batch_done":
                batch, outcomes = payload
                self.core.batch_done(batch, outcomes, now)
            elif kind == "tick":
                self.core.tick(now)
                pending = len(self.core.queue) or self.core.inflight
                if now < horizon or (pending and now < deadline_horizon):
                    push(now + TICK_INTERVAL_S, "tick", None)
            dispatch(now)
            collect(now)
        return result


def summarize(result, core):
    """Plain-JSON metrics for one run."""
    by_status = result.by_status()
    latencies = sorted(
        response.queued_s + response.service_s
        for _t, response, _d in result.completions
        if response.status == Status.VERDICT and not response.cached
    )

    def quantile(values, q):
        if not values:
            return 0.0
        return values[min(len(values) - 1, int(q * len(values)))]

    reject_reasons = {}
    per_tenant = {}
    for _t, response, _d in result.completions:
        if response.status == Status.REJECTED_OVERLOAD:
            reject_reasons[response.reason] = (
                reject_reasons.get(response.reason, 0) + 1
            )
        if response.tenant:
            tenant = per_tenant.setdefault(
                response.tenant, {"statuses": {}, "latencies": []}
            )
            tenant["statuses"][response.status] = (
                tenant["statuses"].get(response.status, 0) + 1
            )
            if response.status == Status.VERDICT and not response.cached:
                tenant["latencies"].append(
                    response.queued_s + response.service_s
                )
    tenants = {}
    for name, data in sorted(per_tenant.items()):
        values = sorted(data["latencies"])
        tenants[name] = {
            "statuses": data["statuses"],
            "served": len(values),
            "p50_s": round(quantile(values, 0.5), 6),
            "p99_s": round(quantile(values, 0.99), 6),
        }
    duration = max(result.duration_s, 1e-9)
    degraded_spells = sum(
        1 for _t, _old, new, _why in core.governor.transitions
        if new != "healthy"
    )
    recovered = any(
        new == "healthy" for _t, _old, new, _why in core.governor.transitions
    )
    return {
        "submissions": len(result.submitted),
        "responses": by_status,
        "reject_reasons": reject_reasons,
        "throughput_rps": round(by_status.get(Status.VERDICT, 0) / duration, 6),
        "p50_s": round(quantile(latencies, 0.5), 6),
        "p99_s": round(quantile(latencies, 0.99), 6),
        "tenants": tenants,
        "governor_transitions": [
            [round(t, 3), old, new, why]
            for t, old, new, why in core.governor.transitions
        ],
        "degraded_spells": degraded_spells,
        "recovered_to_healthy": recovered,
        "breaker_trips": core.breaker.trips,
        "decisions": len(core.decision_log),
    }
