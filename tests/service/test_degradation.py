"""Governor state machine hysteresis and circuit-breaker transitions."""

import pytest

from repro.service.degradation import CircuitBreaker, OverloadGovernor, ServiceState


def governor(**overrides):
    kwargs = dict(
        degraded_queue=10, shed_queue=20,
        recover_fraction=0.5, recover_dwell_s=2.0,
    )
    kwargs.update(overrides)
    return OverloadGovernor(**kwargs)


class TestOverloadGovernor:
    def test_escalation_is_immediate(self):
        gov = governor()
        assert gov.update(0.0, 0) == ServiceState.HEALTHY
        assert gov.update(1.0, 10) == ServiceState.DEGRADED
        assert gov.update(1.1, 20) == ServiceState.SHEDDING

    def test_healthy_to_shedding_skips_degraded(self):
        gov = governor()
        assert gov.update(0.0, 25) == ServiceState.SHEDDING

    def test_recovery_needs_calm_plus_dwell(self):
        gov = governor()
        gov.update(0.0, 12)
        assert gov.state == ServiceState.DEGRADED
        # Below trip but above recover_fraction * trip: not calm.
        assert gov.update(1.0, 8) == ServiceState.DEGRADED
        # Calm (5 <= 0.5*10) but dwell not yet served.
        assert gov.update(2.0, 5) == ServiceState.DEGRADED
        assert gov.update(3.0, 5) == ServiceState.DEGRADED
        # Dwell complete.
        assert gov.update(4.0, 5) == ServiceState.HEALTHY

    def test_pressure_spike_resets_the_dwell(self):
        gov = governor()
        gov.update(0.0, 12)
        gov.update(1.0, 4)  # calm streak starts
        gov.update(2.0, 8)  # not calm: streak broken
        gov.update(3.0, 4)  # streak restarts
        assert gov.update(4.0, 4) == ServiceState.DEGRADED
        assert gov.update(5.5, 4) == ServiceState.HEALTHY

    def test_recovery_steps_down_one_state_per_dwell(self):
        gov = governor()
        gov.update(0.0, 30)
        assert gov.state == ServiceState.SHEDDING
        gov.update(1.0, 0)
        assert gov.update(3.0, 0) == ServiceState.DEGRADED
        # Another full dwell for the second step: the calm streak
        # restarts when the state changes (at t=3.0 -> observed t=4.0).
        assert gov.update(4.0, 0) == ServiceState.DEGRADED
        assert gov.update(5.5, 0) == ServiceState.DEGRADED
        assert gov.update(6.5, 0) == ServiceState.HEALTHY

    def test_transitions_are_recorded_with_reasons(self):
        gov = governor()
        gov.update(0.0, 15)
        gov.update(1.0, 0)
        gov.update(3.5, 0)
        assert gov.transitions == [
            (0.0, ServiceState.HEALTHY, ServiceState.DEGRADED, "queue=15"),
            (3.5, ServiceState.DEGRADED, ServiceState.HEALTHY, "recovered (queue=0)"),
        ]

    def test_invalid_parameters(self):
        with pytest.raises(ValueError, match="shed_queue"):
            governor(degraded_queue=10, shed_queue=5)
        with pytest.raises(ValueError, match="recover_fraction"):
            governor(recover_fraction=0.0)


class TestCircuitBreaker:
    def test_trips_after_consecutive_failures_only(self):
        breaker = CircuitBreaker(threshold=3, cooldown_s=10.0)
        breaker.record_failure(0.0)
        breaker.record_failure(0.1)
        breaker.record_success(0.2)  # resets the streak
        breaker.record_failure(0.3)
        breaker.record_failure(0.4)
        assert breaker.state == CircuitBreaker.CLOSED
        breaker.record_failure(0.5)
        assert breaker.state == CircuitBreaker.OPEN
        assert breaker.trips == 1

    def test_open_blocks_until_cooldown_then_single_probe(self):
        breaker = CircuitBreaker(threshold=1, cooldown_s=10.0)
        breaker.record_failure(0.0)
        assert not breaker.allow_dispatch(5.0)
        assert breaker.allow_dispatch(10.5)  # the half-open probe
        assert breaker.state == CircuitBreaker.HALF_OPEN
        assert not breaker.allow_dispatch(10.6)  # one probe at a time

    def test_probe_success_closes(self):
        breaker = CircuitBreaker(threshold=1, cooldown_s=1.0)
        breaker.record_failure(0.0)
        assert breaker.allow_dispatch(1.5)
        breaker.record_success(2.0)
        assert breaker.state == CircuitBreaker.CLOSED
        assert breaker.allow_dispatch(2.1)

    def test_probe_failure_reopens_for_another_cooldown(self):
        breaker = CircuitBreaker(threshold=1, cooldown_s=1.0)
        breaker.record_failure(0.0)
        assert breaker.allow_dispatch(1.5)
        breaker.record_failure(2.0)
        assert breaker.state == CircuitBreaker.OPEN
        assert breaker.trips == 2
        assert not breaker.allow_dispatch(2.5)
        assert breaker.allow_dispatch(3.5)
