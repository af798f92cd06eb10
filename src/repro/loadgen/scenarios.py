"""Canned overload scenarios for the WeHeY service.

Each scenario is a named recipe: a tenant mix, a rate envelope over
time, and a service configuration sized so the interesting regime
actually occurs (a spike that never exceeds capacity teaches nothing).
Rates are quoted as multiples of the service's estimated capacity, so
changing the engine's speed rescales every scenario coherently:

- ``ramp``        -- one tenant ramping linearly 0 -> 2x capacity;
  watches the governor walk HEALTHY -> DEGRADED -> SHEDDING in order.
- ``spike``       -- steady half-capacity load with a short 4x burst;
  watches rejection during the burst and dwell-damped recovery after.
- ``sustained2x`` -- three tenants jointly holding 2x capacity;
  the steady-state overload case: throughput stays ~capacity, the
  excess is explicitly rejected, nothing queues unboundedly.
- ``onehot``      -- one hot tenant (1.6x capacity alone) among four
  light ones, with per-tenant rate caps: the fairness case.  The hot
  tenant is capped near its share; light tenants barely notice.
- ``baseline``    -- the ``onehot`` light tenants *without* the hot
  one: the uncontended reference for the fairness acceptance check.

``run_scenario`` replays a recipe deterministically: the same seed gives
the same admission-decision sequence (``core.decision_log``).  The
``service`` claim (:mod:`repro.claims.service`) gates the scenarios.
"""

from repro.loadgen.arrivals import TenantLoad, generate_trace
from repro.loadgen.driver import LoadResult, VirtualService, summarize
from repro.service.core import ServiceConfig, ServiceCore
from repro.service.engine import SyntheticEngine

SCENARIOS = ("ramp", "spike", "sustained2x", "onehot", "baseline")

#: Engine speed used by every scenario (seconds per reference cell).
MEAN_SERVICE_S = 0.5


def service_config(tenant_rate=None):
    """The scenario-standard service configuration."""
    return ServiceConfig(
        max_queue=48,
        tenant_rate=tenant_rate,
        tenant_burst=6.0,
        # Small batches over more slots: same capacity as 4x2, but a
        # quarter of the head-of-line blocking -- the light tenants'
        # p99 under a hot tenant rides on this.
        batch_max=2,
        max_concurrent_batches=4,
        recover_dwell_s=1.0,
        breaker_cooldown_s=10.0,
    )


def capacity_rps(config):
    """Estimated sustainable verdict rate for ``config`` + the standard
    engine: concurrent batches x batch size / mean batch duration."""
    return config.max_concurrent_batches * config.batch_max / MEAN_SERVICE_S


def _light_tenants(capacity):
    return [
        TenantLoad(
            tenant=f"light-{i}",
            rate_rps=0.1 * capacity,
            deadline_s=30.0,
            seed_space=100_000,
        )
        for i in range(4)
    ]


def build_scenario(name, duration_s=60.0):
    """``(tenants, rate_fn, config)`` for one scenario name."""
    config = service_config()
    capacity = capacity_rps(config)
    if name == "ramp":
        tenants = [
            TenantLoad("rampco", rate_rps=capacity, deadline_s=30.0,
                       seed_space=100_000)
        ]
        return tenants, (lambda t: 2.0 * t / duration_s), config
    if name == "spike":
        spike_start = duration_s / 3.0
        spike_end = spike_start + duration_s / 6.0
        tenants = [
            TenantLoad("spikeco", rate_rps=0.5 * capacity, deadline_s=30.0,
                       seed_space=100_000, burst_prob=0.02)
        ]
        return (
            tenants,
            (lambda t: 8.0 if spike_start <= t < spike_end else 1.0),
            config,
        )
    if name == "sustained2x":
        share = 2.0 * capacity / 3.0
        tenants = [
            TenantLoad(f"steady-{i}", rate_rps=share, deadline_s=30.0,
                       seed_space=100_000)
            for i in range(3)
        ]
        return tenants, None, config
    if name == "onehot":
        config = service_config(tenant_rate=0.25 * capacity)
        tenants = [
            TenantLoad("hot", rate_rps=1.6 * capacity, deadline_s=30.0,
                       seed_space=100_000)
        ] + _light_tenants(capacity)
        return tenants, None, config
    if name == "baseline":
        config = service_config(tenant_rate=0.25 * capacity)
        return _light_tenants(capacity), None, config
    raise ValueError(f"unknown scenario {name!r}; expected one of {SCENARIOS}")


def run_scenario(name, seed=0, duration_s=60.0, chaos=None):
    """Replay one scenario; returns ``(summary, LoadResult, core)``.

    The admission-decision sequence lives on ``core.decision_log``; the
    caller checks the one-terminal-response invariant on the result.
    """
    tenants, rate_fn, config = build_scenario(name, duration_s=duration_s)
    trace = generate_trace(tenants, duration_s, seed, rate_fn=rate_fn)
    core = ServiceCore(config)
    engine = SyntheticEngine(mean_service_s=MEAN_SERVICE_S, jitter=0.4, seed=seed)
    driver = VirtualService(core, engine, chaos=chaos)
    result = driver.run(trace)
    summary = summarize(result, core)
    summary["capacity_rps"] = capacity_rps(config)
    return summary, result, core


__all__ = [
    "LoadResult",
    "SCENARIOS",
    "build_scenario",
    "capacity_rps",
    "run_scenario",
    "service_config",
]
