"""Load generator: arrivals, determinism, termination, recipes.

The overload and fairness bounds are the ``service`` claim's
(:mod:`repro.claims.service`). The claim runs once, through
``python -m repro.claims --only service``, and the tests below read
its bounds back from the written report.
"""

import json

import pytest

from repro.claims import service
from repro.claims.__main__ import main as claims_main
from repro.faults.chaos import ServiceChaosProfile
from repro.loadgen.arrivals import ArrivalProcess, TenantLoad, generate_trace
from repro.loadgen.driver import VirtualService
from repro.loadgen.scenarios import (
    MEAN_SERVICE_S,
    SCENARIOS,
    build_scenario,
    capacity_rps,
    run_scenario,
    service_config,
)
from repro.service.core import ServiceCore
from repro.service.engine import SyntheticEngine
from repro.service.protocol import TERMINAL_STATUSES, Status, parse_submission

DURATION_S = 30.0


@pytest.fixture(scope="module")
def scenario_cache():
    """Each scenario is expensive enough to share across tests."""
    cache = {}

    def get(name, seed=0, chaos=None):
        key = (name, seed, chaos.name if chaos else None)
        if key not in cache:
            cache[key] = run_scenario(
                name, seed=seed, duration_s=DURATION_S, chaos=chaos
            )
        return cache[key]

    return get


@pytest.fixture(scope="module")
def service_claim(tmp_path_factory):
    """The ``service`` claim's entry in a report written to disk."""
    path = tmp_path_factory.mktemp("claims") / "CLAIMS_service.json"
    claims_main(["--quick", "--only", "service", "--out", str(path)])
    return json.loads(path.read_text())["claims"]["service"]


class TestArrivals:
    def test_same_seed_same_times(self):
        a = ArrivalProcess(rate_rps=5.0, seed=11).times(60.0)
        b = ArrivalProcess(rate_rps=5.0, seed=11).times(60.0)
        assert a == b
        c = ArrivalProcess(rate_rps=5.0, seed=12).times(60.0)
        assert a != c

    def test_mean_rate_is_respected(self):
        times = ArrivalProcess(rate_rps=10.0, seed=3).times(200.0)
        # 2000 expected; modulation widens the variance, so take 5 sigma.
        assert 2000 * 0.6 < len(times) < 2000 * 1.4
        assert all(0.0 <= t < 200.0 for t in times)
        assert times == sorted(times)

    def test_ramp_from_zero_produces_arrivals(self):
        # The regression that motivated thinning: a rate function that
        # starts at zero must not stall the whole process.
        process = ArrivalProcess(
            rate_rps=10.0, seed=7, rate_fn=lambda t: 2.0 * t / 100.0
        )
        times = process.times(100.0)
        assert len(times) > 100
        first_half = sum(1 for t in times if t < 50.0)
        assert first_half < len(times) - first_half  # density grows

    def test_generate_trace_is_deterministic_and_parseable(self):
        tenants = [
            TenantLoad("a", rate_rps=3.0, apps=("netflix", "skype")),
            TenantLoad("b", rate_rps=2.0),
        ]
        trace1 = generate_trace(tenants, 20.0, seed=5)
        trace2 = generate_trace(tenants, 20.0, seed=5)
        assert trace1 == trace2
        assert generate_trace(tenants, 20.0, seed=6) != trace1
        times = [t for t, _raw in trace1]
        assert times == sorted(times)
        for _t, raw in trace1:
            submission = parse_submission(dict(raw))
            assert submission.tenant in ("a", "b")


class TestDeterminismAcceptance:
    @pytest.mark.parametrize("name", SCENARIOS)
    def test_identical_admission_decisions_across_reruns(self, name):
        _s1, _r1, core1 = run_scenario(name, seed=2, duration_s=10.0)
        _s2, _r2, core2 = run_scenario(name, seed=2, duration_s=10.0)
        assert core1.decision_log == core2.decision_log

    def test_chaos_schedule_is_reproducible(self):
        chaos = ServiceChaosProfile.smoke(seed=23)
        assert chaos.schedule(500) == ServiceChaosProfile.smoke(seed=23).schedule(500)
        assert chaos.schedule(500) != ServiceChaosProfile.smoke(seed=24).schedule(500)
        _s1, _r1, core1 = run_scenario("spike", seed=2, duration_s=10.0,
                                       chaos=chaos)
        _s2, _r2, core2 = run_scenario("spike", seed=2, duration_s=10.0,
                                       chaos=ServiceChaosProfile.smoke(seed=23))
        assert core1.decision_log == core2.decision_log


class TestTerminationInvariant:
    @pytest.mark.parametrize("name", SCENARIOS)
    def test_every_submission_terminates_exactly_once(self, name,
                                                      scenario_cache):
        # Every status lands in the terminal contract.
        summary, result, _core = scenario_cache(name)
        result.check_one_terminal_response_each()
        assert set(summary["responses"]) <= set(TERMINAL_STATUSES)
        assert sum(summary["responses"].values()) == summary["submissions"]

    def test_chaos_run_still_terminates_every_submission(self, scenario_cache):
        summary, result, _core = scenario_cache(
            "sustained2x", seed=5, chaos=ServiceChaosProfile.smoke())
        result.check_one_terminal_response_each()
        # Malformed injections surface as FAILED, not as lost requests.
        assert summary["responses"].get("FAILED", 0) > 0


    def test_nan_frame_fails_and_the_run_terminates(self):
        # A NaN duration once reached the fair queue as a cost and made
        # next_batch() spin forever; it must now fail at parse.
        nan_frame = json.loads('{"client": "c", "knobs": {"duration": NaN}}')
        good = {"client": "c", "id": "good", "knobs": {"duration": 8.0}}
        core = ServiceCore(service_config())
        engine = SyntheticEngine(mean_service_s=MEAN_SERVICE_S, seed=0)
        result = VirtualService(core, engine).run([(0.0, nan_frame), (0.5, good)])
        assert result.check_one_terminal_response_each() == 2
        statuses = {response.id: response for _t, response, _d in result.completions}
        failed = [r for rid, r in statuses.items() if rid != "good"]
        assert [r.status for r in failed] == [Status.FAILED]
        assert failed[0].reason.startswith("malformed submission: ")
        assert statuses["good"].status == Status.VERDICT


def test_service_claim_holds(service_claim):
    assert service_claim["failures"] == []
    assert service.failures(service_claim["report"]) == []


class TestOverloadBehaviour:
    def test_sustained_overload_sheds_instead_of_queueing(self, service_claim):
        sustained = service_claim["report"]["bounds"]["sustained2x"]
        capacity = sustained["capacity_rps"]
        assert sustained["rejected"] > 0
        # Goodput stays near capacity: overload costs the excess, not
        # the service.
        assert sustained["throughput_rps"] > 0.7 * capacity
        assert sustained["throughput_rps"] < 1.1 * capacity

    def test_spike_degrades_then_recovers(self, service_claim):
        spike = service_claim["report"]["bounds"]["spike"]
        assert spike["rejected"] > 0
        assert spike["transitions"] >= 2
        assert spike["recovered_to_healthy"]

    def test_ramp_walks_the_state_machine_in_order(self, service_claim):
        ramp = service_claim["report"]["bounds"]["ramp"]
        assert ramp["first_transition"] == "degraded"  # degrade before anything else


class TestFairnessAcceptance:
    def test_hot_tenant_capped_light_tenants_barely_notice(self, service_claim):
        onehot = service_claim["report"]["bounds"]["onehot"]
        fair_share = 0.25 * capacity_rps(service_config()) * DURATION_S
        assert onehot["fair_share"] == pytest.approx(fair_share)
        # The hot tenant is capped at (about) its fair share...
        assert onehot["hot_served"] <= fair_share * 1.15
        assert onehot["hot_rejected"] > onehot["hot_served"]
        # ...while the light tenants' tail latency stays within 2x of
        # the uncontended baseline.
        assert onehot["light_p99_s"] <= 2.0 * max(onehot["baseline_light_p99_s"], 1.0)

    def test_light_tenants_are_still_served(self, service_claim):
        fractions = service_claim["report"]["bounds"]["onehot"]["light_served_fraction"]
        assert sorted(fractions) == [f"light-{i}" for i in range(4)]
        for fraction in fractions.values():
            assert fraction > 0.8


class TestBench:
    def test_write_bench_is_deterministic_and_parses(self, service_claim):
        # The written report parses, and its chaos leg re-ran every
        # scenario with identical decisions and one answer each.
        chaos = service_claim["report"]["chaos"]["scenarios"]
        assert set(chaos) == set(SCENARIOS)
        for run in chaos.values():
            assert run["deterministic_rerun"] is True
            assert run["one_terminal_each"] is True


class TestBuildScenario:
    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError):
            build_scenario("nope")

    @pytest.mark.parametrize("name", SCENARIOS)
    def test_recipes_are_well_formed(self, name):
        tenants, rate_fn, config = build_scenario(name, duration_s=30.0)
        assert tenants
        assert capacity_rps(config) > 0
        if rate_fn is not None:
            assert rate_fn(15.0) >= 0.0
