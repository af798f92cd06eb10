"""ServiceCore lifecycle: every submission ends in exactly one response."""

import pytest

from repro.experiments.scenarios import ScenarioConfig
from repro.service import protocol
from repro.service.core import BREAKER_THRESHOLD, ServiceConfig, ServiceCore
from repro.service.degradation import CircuitBreaker, ServiceState
from repro.service.protocol import Status, parse_submission


def submission(**overrides):
    raw = {
        "tenant": "carrier-a",
        "client": "client-1",
        "app": "netflix",
        "deadline_s": 30,
        "knobs": {"limiter": "common", "seed": 4, "duration": 8.0},
    }
    knobs = overrides.pop("knobs", None)
    raw.update(overrides)
    if knobs:
        raw["knobs"] = dict(raw["knobs"], **knobs)
    return parse_submission(raw)


def config(**overrides):
    kwargs = dict(
        max_queue=8, batch_max=2, max_concurrent_batches=2,
        breaker_cooldown_s=10.0,
    )
    kwargs.update(overrides)
    return ServiceConfig(**kwargs)


def ok_outcomes(batch, verdict=None):
    return [("ok", verdict or {"detected": True})] * len(batch.requests)


class TestHappyPath:
    def test_submit_dispatch_verdict(self):
        core = ServiceCore(config())
        rid = core.submit(submission(), now=0.0)
        assert core.take_responses() == []  # queued, nothing terminal yet
        batch = core.next_batch(now=1.0)
        assert [r.id for r in batch.requests] == [rid]
        core.batch_done(batch, ok_outcomes(batch), now=2.0)
        (resp,) = core.take_responses()
        assert resp.id == rid and resp.status == Status.VERDICT
        assert resp.queued_s == pytest.approx(1.0)
        assert resp.service_s == pytest.approx(1.0)
        assert not resp.cached

    def test_verdict_is_memoized_for_identical_scenarios(self):
        core = ServiceCore(config())
        core.submit(submission(), now=0.0)
        batch = core.next_batch(now=0.0)
        core.batch_done(batch, ok_outcomes(batch, {"detected": False}), now=1.0)
        core.take_responses()
        # Identical scenario from another client: served from the memo,
        # no queue slot consumed.
        rid2 = core.submit(submission(client="client-2"), now=2.0)
        (resp,) = core.take_responses()
        assert resp.id == rid2 and resp.status == Status.VERDICT
        assert resp.cached and resp.verdict == {"detected": False}
        assert len(core.queue) == 0

    def test_batch_groups_up_to_batch_max(self):
        core = ServiceCore(config(batch_max=2))
        for seed in range(3):
            core.submit(submission(knobs={"seed": seed}), now=0.0)
        first = core.next_batch(now=0.0)
        second = core.next_batch(now=0.0)
        assert len(first.requests) == 2 and len(second.requests) == 1

    def test_concurrency_bound_blocks_dispatch(self):
        core = ServiceCore(config(batch_max=1, max_concurrent_batches=1))
        for seed in range(2):
            core.submit(submission(knobs={"seed": seed}), now=0.0)
        batch = core.next_batch(now=0.0)
        assert batch is not None
        assert core.next_batch(now=0.0) is None  # saturated
        core.batch_done(batch, ok_outcomes(batch), now=1.0)
        assert core.next_batch(now=1.0) is not None


class TestRejections:
    def test_draining_rejects_everything(self):
        core = ServiceCore(config())
        core.begin_drain(now=0.0)
        core.submit(submission(), now=0.0)
        (resp,) = core.take_responses()
        assert resp.status == Status.REJECTED_OVERLOAD
        assert resp.reason == "draining"

    def test_shedding_rejects_fresh_misses(self):
        core = ServiceCore(config())
        core.governor.update(0.0, 10)
        assert core.governor.state == ServiceState.SHEDDING
        core.submit(submission(), now=0.0)
        (resp,) = core.take_responses()
        assert resp.status == Status.REJECTED_OVERLOAD
        assert resp.reason == "shedding"
        assert resp.state == ServiceState.SHEDDING

    def test_degraded_serves_cache_hits_only(self):
        core = ServiceCore(config())
        # Populate the memo while healthy.
        core.submit(submission(), now=0.0)
        batch = core.next_batch(now=0.0)
        core.batch_done(batch, ok_outcomes(batch), now=0.1)
        core.take_responses()
        core.governor.update(1.0, 5)
        assert core.governor.state == ServiceState.DEGRADED
        # Cache hit: a VERDICT even while degraded.
        core.submit(submission(client="c2"), now=1.0)
        # Cache miss: rejected.
        core.submit(submission(knobs={"seed": 99}), now=1.0)
        hit, miss = core.take_responses()
        assert hit.status == Status.VERDICT and hit.cached
        assert miss.status == Status.REJECTED_OVERLOAD
        assert miss.reason == "degraded"

    def test_queue_full_reason(self):
        core = ServiceCore(config(max_queue=1))
        core.submit(submission(knobs={"seed": 0}), now=0.0)
        core.submit(submission(knobs={"seed": 1}), now=0.0)
        (resp,) = core.take_responses()
        assert resp.status == Status.REJECTED_OVERLOAD
        assert resp.reason == "queue_full"

    def test_tenant_rate_reason(self):
        core = ServiceCore(config(tenant_rate=1.0, tenant_burst=1.0))
        core.submit(submission(knobs={"seed": 0}), now=0.0)
        core.submit(submission(knobs={"seed": 1}), now=0.0)
        (resp,) = core.take_responses()
        assert resp.reason == "tenant_rate"


class TestDeadlines:
    def test_expired_in_queue_never_touches_a_worker(self):
        core = ServiceCore(config())
        rid = core.submit(submission(deadline_s=5), now=0.0)
        assert core.next_batch(now=6.0) is None
        (resp,) = core.take_responses()
        assert resp.id == rid and resp.status == Status.DEADLINE_EXCEEDED
        assert resp.reason == "expired in queue"
        assert resp.queued_s == pytest.approx(6.0)

    def test_completed_after_deadline(self):
        core = ServiceCore(config())
        rid = core.submit(submission(deadline_s=5), now=0.0)
        batch = core.next_batch(now=1.0)
        core.batch_done(batch, ok_outcomes(batch), now=7.0)
        (resp,) = core.take_responses()
        assert resp.id == rid and resp.status == Status.DEADLINE_EXCEEDED
        assert resp.reason == "completed after deadline"
        # The verdict still landed in the memo: the work is not wasted.
        core.submit(submission(client="c2", deadline_s=5), now=8.0)
        (cached,) = core.take_responses()
        assert cached.status == Status.VERDICT and cached.cached

    def test_cell_timeout_is_max_remaining_budget(self):
        core = ServiceCore(config(batch_max=2))
        core.submit(submission(deadline_s=10, knobs={"seed": 0}), now=0.0)
        core.submit(submission(deadline_s=30, knobs={"seed": 1}), now=0.0)
        batch = core.next_batch(now=4.0)
        assert batch.cell_timeout == pytest.approx(26.0)

    def test_deadline_equal_to_now_expires_on_that_call(self):
        core = ServiceCore(config())
        rid = core.submit(submission(deadline_s=5), now=0.0)
        assert core.expire(now=4.5) == 0
        assert core.expire(now=5.0) == 1
        (resp,) = core.take_responses()
        assert resp.id == rid and resp.status == Status.DEADLINE_EXCEEDED

    def test_earlier_deadline_pushed_after_a_sweep_expires_on_time(self):
        core = ServiceCore(config())
        late = core.submit(submission(deadline_s=50, knobs={"seed": 0}), now=0.0)
        assert core.expire(now=10.0) == 0  # the walk leaves the bound at 50
        early = core.submit(submission(deadline_s=5, knobs={"seed": 1}), now=10.0)
        assert core.expire(now=14.0) == 0
        assert core.expire(now=15.0) == 1
        assert [r.id for r in core.take_responses()] == [early]
        assert core.expire(now=49.0) == 0
        assert core.expire(now=50.0) == 1
        assert [r.id for r in core.take_responses()] == [late]
        assert len(core.queue) == 0

    def test_resumed_request_lowers_the_bound(self):
        core = ServiceCore(config())
        core.submit(submission(deadline_s=100, knobs={"seed": 0}), now=0.0)
        assert core.expire(now=1.0) == 0
        payload = {"id": "req-r", "submission": submission().as_dict(), "remaining_s": 2.0}
        assert core.resume([payload], now=1.0) == 1
        assert core.expire(now=3.0) == 1
        (resp,) = core.take_responses()
        assert resp.id == "req-r" and resp.status == Status.DEADLINE_EXCEEDED
        assert len(core.queue) == 1


class TestBreaker:
    def test_engine_failures_trip_and_block_dispatch(self):
        core = ServiceCore(config(batch_max=1))
        for seed in range(BREAKER_THRESHOLD + 1):
            core.submit(submission(knobs={"seed": seed}), now=0.0)
        for _ in range(BREAKER_THRESHOLD):
            batch = core.next_batch(now=0.0)
            core.batch_failed(batch, "engine blew up", now=0.5)
        responses = core.take_responses()
        assert [r.status for r in responses] == [Status.FAILED] * BREAKER_THRESHOLD
        assert core.breaker.state == CircuitBreaker.OPEN
        assert core.next_batch(now=1.0) is None  # blocked, work stays queued
        assert len(core.queue) == 1
        # After cooldown the half-open probe goes through and a success
        # closes the breaker.
        batch = core.next_batch(now=11.0)
        assert batch is not None
        core.batch_done(batch, ok_outcomes(batch), now=11.5)
        assert core.breaker.state == CircuitBreaker.CLOSED


class TestDrainResume:
    def test_pending_payloads_carry_remaining_budget(self):
        core = ServiceCore(config())
        core.submit(submission(deadline_s=30, knobs={"seed": 0}), now=0.0)
        core.begin_drain(now=10.0)
        payloads = core.pending_payloads(now=10.0)
        assert len(payloads) == 1
        assert payloads[0]["remaining_s"] == pytest.approx(20.0)
        assert payloads[0]["submission"]["tenant"] == "carrier-a"
        assert len(core.queue) == 0

    def test_resume_requeues_and_completes(self):
        source = ServiceCore(config())
        rid = source.submit(submission(deadline_s=30), now=0.0)
        payloads = source.pending_payloads(now=5.0)

        fresh = ServiceCore(config())
        assert fresh.resume(payloads, now=100.0) == 1
        batch = fresh.next_batch(now=100.0)
        assert [r.id for r in batch.requests] == [rid]
        # Downtime did not charge the budget: 25 s remain from t=100.
        assert batch.requests[0].deadline_at == pytest.approx(125.0)
        fresh.batch_done(batch, ok_outcomes(batch), now=101.0)
        (resp,) = fresh.take_responses()
        assert resp.id == rid and resp.status == Status.VERDICT

    def test_drain_then_resume_into_the_same_core(self):
        core = ServiceCore(config())
        first = core.submit(submission(deadline_s=10, knobs={"seed": 0}), now=0.0)
        second = core.submit(submission(deadline_s=30, knobs={"seed": 1}), now=0.0)
        core.begin_drain(now=5.0)
        payloads = core.pending_payloads(now=5.0)
        assert len(core.queue) == 0 and core.expire(now=6.0) == 0
        assert core.resume(payloads, now=100.0) == 2
        assert core.expire(now=104.0) == 0
        assert core.expire(now=105.0) == 1
        assert [r.id for r in core.take_responses()] == [first]
        batch = core.next_batch(now=106.0)
        assert [r.id for r in batch.requests] == [second]
        assert batch.requests[0].deadline_at == pytest.approx(125.0)

    def test_scenario_built_once_per_submission(self, monkeypatch):
        built = []

        class CountingConfig(ScenarioConfig):
            def __post_init__(self):
                built.append(self)
                super().__post_init__()

        monkeypatch.setattr(protocol, "ScenarioConfig", CountingConfig)
        source = ServiceCore(config())
        source.submit(submission(deadline_s=30), now=0.0)
        assert len(built) == 1  # parse_submission's, reused by submit
        (request,) = [r for _t, r in source.queue.drain_all()]
        assert request.scenario is built[0]
        fresh = ServiceCore(config())
        fresh.resume([{"submission": request.submission.as_dict()}], now=1.0)
        assert len(built) == 2  # one more for the re-parsed submission
        assert fresh.next_batch(now=1.0).requests[0].scenario is built[1]

    def test_resume_expires_spent_budgets(self):
        core = ServiceCore(config())
        payloads = [{
            "id": "req-x",
            "submission": submission().as_dict(),
            "remaining_s": 0.0,
        }]
        assert core.resume(payloads, now=0.0) == 0
        (resp,) = core.take_responses()
        assert resp.id == "req-x"
        assert resp.status == Status.DEADLINE_EXCEEDED
        assert resp.reason == "expired while down"


class TestAccountingInvariant:
    def test_malformed_gets_a_terminal_failed(self):
        core = ServiceCore(config())
        rid = core.malformed(None, "bad json", tenant="t")
        (resp,) = core.take_responses()
        assert resp.id == rid and resp.status == Status.FAILED
        assert "malformed submission" in resp.reason

    def test_every_submission_terminates_exactly_once(self):
        # Mixed fates in one run: verdicts, rejects, expiries, failures.
        core = ServiceCore(config(max_queue=3, batch_max=1))
        ids = []
        for seed in range(5):
            ids.append(core.submit(
                submission(knobs={"seed": seed}, deadline_s=10), now=0.0))
        batch = core.next_batch(now=0.0)
        core.batch_done(batch, ok_outcomes(batch), now=1.0)
        batch = core.next_batch(now=1.0)
        core.batch_failed(batch, "boom", now=2.0)
        core.tick(now=50.0)  # expire the remainder
        responses = core.take_responses()
        assert sorted(r.id for r in responses) == sorted(ids)
        assert sum(core.counts.values()) == len(ids)
        statuses = {r.id: r.status for r in responses}
        assert set(statuses.values()) == {
            Status.VERDICT, Status.FAILED,
            Status.REJECTED_OVERLOAD, Status.DEADLINE_EXCEEDED,
        }


class TestObservability:
    def test_gauges_and_counters_published(self):
        from repro.obs import MetricsSink, use_sink

        core = ServiceCore(config())
        with use_sink(MetricsSink()) as sink:
            core.submit(submission(), now=0.0)
            core.tick(now=0.0)
            assert sink.gauges["service.state"] == 0.0
            assert sink.gauges["service.queue_depth"] == 1.0
            batch = core.next_batch(now=0.0)
            assert sink.gauges["service.inflight"] == 1.0
            core.batch_done(batch, ok_outcomes(batch), now=0.5)
            core.governor.update(1.0, 10)  # force SHEDDING
            core.submit(submission(knobs={"seed": 9}), now=1.0)
            core.tick(now=1.0)
        assert sink.counters["service.responses.VERDICT"] == 1
        assert sink.counters["service.responses.REJECTED_OVERLOAD"] == 1
        assert sink.counters["service.rejected.shedding"] == 1
        assert sink.gauges["service.state"] == 2.0
        assert sink.counters["service.batches"] == 1


class TestServiceConfig:
    """Each setting is checked when the config is built, not mid-run."""

    @pytest.mark.parametrize("field, value", [
        ("max_queue", 0),
        ("max_queue", -1),
        ("max_queue", 8.0),
        ("max_queue", True),
        ("tenant_rate", 0.0),
        ("tenant_rate", -1.0),
        ("tenant_rate", float("nan")),
        ("tenant_rate", float("inf")),
        ("tenant_burst", 0.5),
        ("tenant_burst", float("nan")),
        ("batch_max", 0),
        ("batch_max", 2.5),
        ("max_concurrent_batches", 0),
        ("recover_dwell_s", -0.1),
        ("recover_dwell_s", float("nan")),
        ("breaker_cooldown_s", 0.0),
        ("breaker_cooldown_s", float("inf")),
    ])
    def test_bad_value_raises_at_construction(self, field, value):
        with pytest.raises(ValueError, match=f"ServiceConfig.{field} must be"):
            ServiceConfig(**{field: value})

    @pytest.mark.parametrize("field, value", [
        ("max_queue", 1),
        ("tenant_rate", None),
        ("tenant_rate", 1e-9),
        ("tenant_rate", 2),
        ("tenant_burst", 1.0),
        ("batch_max", 1),
        ("max_concurrent_batches", 1),
        ("recover_dwell_s", 0.0),
        ("breaker_cooldown_s", 1e-6),
    ])
    def test_edge_of_domain_constructs_and_serves(self, field, value):
        core = ServiceCore(ServiceConfig(**{field: value}))
        core.submit(submission(), now=0.0)
        batch = core.next_batch(now=0.0)
        core.batch_done(batch, ok_outcomes(batch), now=0.5)
        (resp,) = core.take_responses()
        assert resp.status == Status.VERDICT

    @pytest.mark.parametrize("max_queue, trips", [
        (1, (1, 1)), (2, (1, 1)), (8, (4, 6)), (48, (24, 40)), (64, (32, 54)),
    ])
    def test_governor_trips_at_half_and_85_percent_of_the_queue(self, max_queue, trips):
        governor = ServiceCore(ServiceConfig(max_queue=max_queue)).governor
        assert (governor.degraded_queue, governor.shed_queue) == trips
