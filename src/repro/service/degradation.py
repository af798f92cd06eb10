"""Graceful degradation: the overload state machine and circuit breaker.

Two independent protective loops:

- :class:`OverloadGovernor` watches *load* (the queue depth) and walks
  HEALTHY -> DEGRADED -> SHEDDING.  DEGRADED serves store/memo cache
  hits only (fresh work is rejected); SHEDDING rejects all new work
  while in-flight cells drain.  Up-transitions fire immediately
  (overload must not wait out a dwell timer); recovery requires the
  depth to fall to a *fraction* of the trip point **and** stay there
  for a dwell period -- hysteresis, so the service cannot flap at a
  threshold boundary.
- :class:`CircuitBreaker` watches the *executor* (repeated batch
  failures / quarantined cells trip it OPEN), halts dispatch for a
  cooldown, then HALF_OPEN probes with a single batch before closing.
  A broken simulator backend therefore stops burning workers after a
  few failures instead of failing every queued cell in turn.

Both are sans-IO: every method takes an explicit ``now``, no wall clock
is read, so the virtual-time load generator exercises exactly the
transitions a production deployment would see.  Their settings come
from :mod:`repro.service.core` (``ServiceConfig`` and its constants).
"""


class ServiceState:
    """Service-level load states (string constants)."""

    HEALTHY = "healthy"
    DEGRADED = "degraded"
    SHEDDING = "shedding"


_STATE_ORDER = {
    ServiceState.HEALTHY: 0,
    ServiceState.DEGRADED: 1,
    ServiceState.SHEDDING: 2,
}


class OverloadGovernor:
    """The HEALTHY / DEGRADED / SHEDDING state machine.

    Parameters:
        degraded_queue / shed_queue: queue-depth trip points.
        recover_fraction: recovery requires a depth at most
            ``fraction * trip`` (hysteresis width).
        recover_dwell_s: recovery requires the low-pressure condition
            to hold this long (flap damping).
    """

    def __init__(self, degraded_queue, shed_queue, recover_fraction, recover_dwell_s):
        if shed_queue < degraded_queue:
            raise ValueError("shed_queue must be >= degraded_queue")
        if not 0.0 < recover_fraction <= 1.0:
            raise ValueError("recover_fraction must be in (0, 1]")
        self.degraded_queue = degraded_queue
        self.shed_queue = shed_queue
        self.recover_fraction = recover_fraction
        self.recover_dwell_s = recover_dwell_s
        self.state = ServiceState.HEALTHY
        self.transitions = []  # (now, from, to, reason)
        self._calm_since = None  # start of the current low-pressure streak

    def _target_state(self, queue_depth):
        """The state current pressure *demands* (ignoring hysteresis)."""
        if queue_depth >= self.shed_queue:
            return ServiceState.SHEDDING
        if queue_depth >= self.degraded_queue:
            return ServiceState.DEGRADED
        return ServiceState.HEALTHY

    def _calm(self, queue_depth):
        """Pressure low enough to *recover* from the current state."""
        shedding = self.state == ServiceState.SHEDDING
        trip = self.shed_queue if shedding else self.degraded_queue
        return queue_depth <= self.recover_fraction * trip

    def _move(self, now, new_state, reason):
        self.transitions.append((now, self.state, new_state, reason))
        self.state = new_state
        self._calm_since = None

    def update(self, now, queue_depth):
        """Advance the machine one tick; returns the (possibly new) state."""
        target = self._target_state(queue_depth)
        if _STATE_ORDER[target] > _STATE_ORDER[self.state]:
            # Escalation is immediate -- overload does not wait.
            self._move(now, target, f"queue={queue_depth}")
            return self.state
        if self.state == ServiceState.HEALTHY:
            self._calm_since = None
            return self.state
        # Recovery: one step down per dwell period, and only while calm.
        if not self._calm(queue_depth):
            self._calm_since = None
            return self.state
        if self._calm_since is None:
            self._calm_since = now
            return self.state
        if now - self._calm_since >= self.recover_dwell_s:
            down = (
                ServiceState.DEGRADED
                if self.state == ServiceState.SHEDDING
                else ServiceState.HEALTHY
            )
            self._move(now, down, f"recovered (queue={queue_depth})")
        return self.state


class CircuitBreaker:
    """CLOSED / OPEN / HALF_OPEN breaker around the sweep executor.

    ``record_failure`` counts *consecutive* batch failures (an engine
    exception or a quarantined cell); ``threshold`` of them trips the
    breaker OPEN for ``cooldown_s``.  After the cooldown,
    ``allow_dispatch`` admits exactly one probe batch (HALF_OPEN); its
    outcome closes or re-opens the breaker.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"

    def __init__(self, threshold, cooldown_s):
        if threshold < 1:
            raise ValueError("threshold must be >= 1")
        if cooldown_s <= 0:
            raise ValueError("cooldown_s must be positive")
        self.threshold = threshold
        self.cooldown_s = cooldown_s
        self.state = self.CLOSED
        self.consecutive_failures = 0
        self.trips = 0
        self.opened_at = None
        self._probe_outstanding = False
        self.transitions = []  # (now, from, to)

    def _move(self, now, new_state):
        self.transitions.append((now, self.state, new_state))
        self.state = new_state

    def allow_dispatch(self, now):
        """May a batch be dispatched right now?

        OPEN past its cooldown moves to HALF_OPEN and admits a single
        probe; further dispatches wait for the probe's outcome.
        """
        if self.state == self.CLOSED:
            return True
        if self.state == self.OPEN:
            if now - self.opened_at < self.cooldown_s:
                return False
            self._move(now, self.HALF_OPEN)
            self._probe_outstanding = False
        # HALF_OPEN: one probe at a time.
        if self._probe_outstanding:
            return False
        self._probe_outstanding = True
        return True

    def record_success(self, now):
        self.consecutive_failures = 0
        self._probe_outstanding = False
        if self.state != self.CLOSED:
            self._move(now, self.CLOSED)

    def record_failure(self, now):
        self.consecutive_failures += 1
        self._probe_outstanding = False
        if self.state == self.HALF_OPEN:
            # The probe failed: back to OPEN for another cooldown.
            self.trips += 1
            self.opened_at = now
            self._move(now, self.OPEN)
        elif (
            self.state == self.CLOSED
            and self.consecutive_failures >= self.threshold
        ):
            self.trips += 1
            self.opened_at = now
            self._move(now, self.OPEN)
