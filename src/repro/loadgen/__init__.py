"""``repro.loadgen`` -- seeded load generation for the WeHeY service.

Three layers, each importable on its own:

- :mod:`repro.loadgen.arrivals` -- per-tenant modulated-Poisson arrival
  traces with heavy-tail bursts (the netsim background model's
  statistics, applied to request load);
- :mod:`repro.loadgen.driver` -- the virtual-time driver that replays a
  trace through a sans-IO :class:`~repro.service.core.ServiceCore` and
  summarizes the outcome;
- :mod:`repro.loadgen.scenarios` -- canned overload scenarios (ramp,
  spike, sustained 2x, one-hot tenant), gated by the ``service`` claim
  (``python -m repro.claims --only service``).

Everything is deterministic by construction: seeded numpy arrival
draws, SHA-256 chaos schedules, a virtual clock, and a core that never
reads wall time -- the same scenario and seed produce the same
admission decisions, byte for byte.
"""

from repro.loadgen.arrivals import ArrivalProcess, TenantLoad, generate_trace
from repro.loadgen.driver import LoadResult, VirtualService, summarize
from repro.loadgen.scenarios import (
    SCENARIOS,
    build_scenario,
    capacity_rps,
    run_scenario,
    service_config,
)

__all__ = [
    "ArrivalProcess",
    "LoadResult",
    "SCENARIOS",
    "TenantLoad",
    "VirtualService",
    "build_scenario",
    "capacity_rps",
    "generate_trace",
    "run_scenario",
    "service_config",
    "summarize",
]
