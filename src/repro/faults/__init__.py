"""Deterministic fault injection for the WeHeY pipeline.

The wild deployment the paper describes (Section 3.4) fails constantly:
replays abort, traceroutes time out, topology entries go stale, and
measurements arrive truncated or corrupted.  This package makes those
failures *injectable and reproducible* -- a seeded
:class:`FaultInjector` drives every failure site from its own RNG
stream, so a failing run can be replayed exactly.

Usage::

    from repro.faults import FaultInjector, FaultProfile

    injector = FaultInjector(FaultProfile.parse("replay_abort=0.5"), seed=7)
    service = NetsimReplayService(config, fault_injector=injector)

:mod:`repro.faults.chaos` extends the same idea one layer down, to the
*process* level: seeded worker-kill / hang / raise / slow injectors
(:class:`ChaosProfile`, activated via ``REPRO_CHAOS`` or a
``chaos_profile=`` knob) exercise the sweep supervisor in
:mod:`repro.parallel`.
"""

from repro.faults.chaos import ChaosError, ChaosProfile, chaos_from_env
from repro.faults.injector import (
    FaultInjectionError,
    FaultInjector,
    ReplayAbortedError,
    StaleTopologyError,
    TracerouteTimeoutError,
    maybe_fire,
)
from repro.faults.profile import ALL_SITES, FaultProfile, FaultRule, FaultSite
from repro.faults.retry import RetryBudget, RetryPolicy

__all__ = [
    "ALL_SITES",
    "ChaosError",
    "ChaosProfile",
    "FaultInjectionError",
    "FaultInjector",
    "FaultProfile",
    "FaultRule",
    "FaultSite",
    "ReplayAbortedError",
    "RetryBudget",
    "RetryPolicy",
    "StaleTopologyError",
    "TracerouteTimeoutError",
    "chaos_from_env",
    "maybe_fire",
]
