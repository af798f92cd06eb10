"""Process-level chaos injection for the sweep supervisor.

:mod:`repro.faults.injector` makes *domain* failures (aborted replays,
broken traceroutes) reproducible.  This module does the same for
*process* failures -- the ones the supervised executor in
:mod:`repro.parallel` exists to survive:

- ``kill``  -- the worker process dies mid-cell (``SIGKILL`` to itself:
  the OOM-killer / container-limit case);
- ``hang``  -- the cell blocks and never returns (a wedged syscall),
  which only the wall-clock watchdog can clear;
- ``raise`` -- the cell raises :class:`ChaosError` before doing any
  work (a crashed dependency);
- ``slow``  -- the cell sleeps briefly before running (scheduling
  jitter, to shake out ordering assumptions).

Every decision is a pure function of ``(seed, cell index, attempt)``
via SHA-256, so a chaos schedule is byte-reproducible across runs,
machines, and worker placements -- tests can call :meth:`~ChaosProfile.plan`
to predict exactly which cells will die without running anything, and a
retried attempt re-draws independently, so recovery converges.

Activation: pass ``chaos_profile=`` to
:class:`~repro.parallel.SweepExecutor`, or set ``REPRO_CHAOS`` (a spec
string, see :meth:`ChaosProfile.parse`) to inject into every supervised
sweep in the process.  Chaos fires only inside pool workers -- a serial
(``jobs=1``) sweep is never injected, which is what makes the
"chaos-ridden ``jobs=N`` equals clean ``jobs=1``" equivalence suite in
``tests/chaos/`` meaningful.
"""

import hashlib
import os
import signal
import time
from dataclasses import dataclass

from repro.faults.injector import FaultInjectionError


class ChaosError(FaultInjectionError):
    """The injected in-worker exception (the ``raise`` site)."""


def uniform_draw(seed, *parts):
    """Deterministic uniform in [0, 1) for one (seed, \\*parts) tuple.

    Pure SHA-256 over the stringified parts -- machine-, process- and
    interleaving-independent, so every chaos schedule (process-level
    and service-level) and the synthetic service engine share one
    reproducible randomness source.
    """
    token = ":".join(str(part) for part in (seed, *parts)).encode()
    digest = hashlib.sha256(token).digest()
    return int.from_bytes(digest[:8], "big") / 2.0**64


#: Spec keys that set a fire probability, in precedence order: when two
#: sites draw a hit for the same (cell, attempt), the first one wins.
CHAOS_SITES = ("kill", "hang", "raise", "slow")


@dataclass(frozen=True)
class ChaosProfile:
    """Per-site fire probabilities plus the seed that schedules them.

    Parameters:
        kill / hang / raise\\_ / slow: probability in [0, 1] that the
            site fires for a given (cell, attempt) draw.
        seed: schedule seed -- same seed, same schedule, everywhere.
        slow_seconds: sleep for the ``slow`` site.
        hang_seconds: sleep for the ``hang`` site; meant to be far above
            any sane ``cell_timeout`` so the watchdog, not the sleep,
            ends the cell.
    """

    kill: float = 0.0
    hang: float = 0.0
    raise_: float = 0.0
    slow: float = 0.0
    seed: int = 0
    slow_seconds: float = 0.05
    hang_seconds: float = 600.0
    name: str = "custom"

    def __post_init__(self):
        for site in CHAOS_SITES:
            probability = self._probability(site)
            if not 0.0 <= probability <= 1.0:
                raise ValueError(f"chaos {site} probability must be in [0, 1]")

    def _probability(self, site):
        return getattr(self, "raise_" if site == "raise" else site)

    def _draw(self, index, attempt, site):
        """Deterministic uniform in [0, 1) for one (cell, attempt, site)."""
        return uniform_draw(self.seed, index, attempt, site)

    def plan(self, index, attempt):
        """The action for this (cell, attempt), or None.

        Pure and stateless: the supervisor's workers and a test
        predicting the schedule see exactly the same answer.
        """
        for site in CHAOS_SITES:
            probability = self._probability(site)
            if probability and self._draw(index, attempt, site) < probability:
                return site
        return None

    def schedule(self, n_cells, attempt=0):
        """``{index: action}`` over ``n_cells`` for one attempt round.

        Lets a test assert "this profile kills >= 2 workers and hangs
        >= 1 cell" before spending any compute on the sweep itself.
        """
        plans = ((index, self.plan(index, attempt)) for index in range(n_cells))
        return {index: action for index, action in plans if action}

    def inject(self, index, attempt):
        """Fire this (cell, attempt)'s scheduled action, if any.

        Runs inside the worker process, before the cell's task -- so a
        ``kill``/``raise`` never leaves a half-computed result behind,
        and a retried cell reproduces the exact bytes a clean run
        produces.
        """
        action = self.plan(index, attempt)
        if action == "kill":
            os.kill(os.getpid(), signal.SIGKILL)
        elif action == "hang":
            time.sleep(self.hang_seconds)
        elif action == "raise":
            raise ChaosError(
                f"injected chaos failure (cell {index}, attempt {attempt})"
            )
        elif action == "slow":
            time.sleep(self.slow_seconds)

    @classmethod
    def smoke(cls, seed=11):
        """The CI profile: some kills and jitter, no hangs (no watchdog
        needed), light enough that bounded retries always recover."""
        return cls(kill=0.4, raise_=0.2, slow=0.3, seed=seed, name="smoke")

    @classmethod
    def parse(cls, spec):
        """Build a profile from a spec string; None for "off".

        Accepts ``off``/``none``/empty (returns None), the named
        profile ``smoke``, or comma-separated ``key=value`` pairs over
        ``kill, hang, raise, slow, seed, slow_seconds, hang_seconds``::

            kill=0.3,hang=0.1,seed=7
        """
        spec = (spec or "").strip()
        if spec in ("", "off", "none"):
            return None
        if spec == "smoke":
            return cls.smoke()
        values = {}
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            key, sep, value = part.partition("=")
            key = key.strip()
            if key == "raise":
                key = "raise_"
            if not sep or key not in (
                "kill", "hang", "raise_", "slow",
                "seed", "slow_seconds", "hang_seconds",
            ):
                raise ValueError(f"bad chaos spec element {part!r}")
            try:
                values[key] = int(value) if key == "seed" else float(value)
            except ValueError:
                raise ValueError(f"bad chaos spec element {part!r}") from None
        return cls(name="custom", **values)


#: Service-level injection sites, in precedence order (first hit wins):
#: ``malformed`` -- the submission arrives as garbage (bad JSON / bad
#: fields); ``slow_client`` -- the client trickles its request in (or
#: stalls reading its response); ``disconnect`` -- the connection drops
#: mid-stream, after submitting but before the verdict arrives.
SERVICE_CHAOS_SITES = ("malformed", "slow_client", "disconnect")


@dataclass(frozen=True)
class ServiceChaosProfile:
    """Seeded client-misbehaviour schedule for the WeHeY service.

    The service-level twin of :class:`ChaosProfile`: every decision is
    a pure SHA-256 function of ``(seed, request index, site)``, so an
    overload test's misbehaving clients are byte-reproducible across
    machines.  The load generator consults :meth:`plan` per generated
    request; the asyncio client harness uses the same schedule to
    decide which connections stall or drop.
    """

    malformed: float = 0.0
    slow_client: float = 0.0
    disconnect: float = 0.0
    seed: int = 0
    slow_seconds: float = 0.5
    name: str = "custom"

    def __post_init__(self):
        for site in SERVICE_CHAOS_SITES:
            if not 0.0 <= getattr(self, site) <= 1.0:
                raise ValueError(f"service chaos {site} probability must be in [0, 1]")

    def plan(self, index):
        """The misbehaviour for request ``index``, or None."""
        for site in SERVICE_CHAOS_SITES:
            probability = getattr(self, site)
            if probability and uniform_draw(self.seed, "svc", index, site) < probability:
                return site
        return None

    def schedule(self, n_requests):
        """``{index: site}`` over ``n_requests`` -- predictable by tests."""
        plans = ((index, self.plan(index)) for index in range(n_requests))
        return {index: site for index, site in plans if site}

    @classmethod
    def smoke(cls, seed=23):
        """The CI profile: a light mix of all three misbehaviours."""
        return cls(malformed=0.05, slow_client=0.05, disconnect=0.05,
                   seed=seed, name="smoke")


def chaos_from_env(environ=None):
    """The :class:`ChaosProfile` named by ``REPRO_CHAOS``, or None.

    A malformed spec raises -- silently running *without* chaos when
    the operator asked for it would invert the point of the harness.
    """
    environ = os.environ if environ is None else environ
    return ChaosProfile.parse(environ.get("REPRO_CHAOS", ""))
