"""End-to-end test coordination -- the full Section-3.4 flow.

When WeHe detects differentiation for a client and the user opts in,
the system must:

1. query the topology database for a server pair whose paths converge
   inside the client's ISP (no pair -> WeHeY cannot run);
2. derive the measurement topology (the two paths' RTTs come from the
   traceroute data);
3. run the simultaneous replays and the localizer;
4. re-verify the topology afterwards; if routes changed and the pair
   is no longer suitable, the measurements are *discarded* and the
   database entry invalidated (Section 3.4, step 4).

``WeHeYCoordinator`` glues the M-Lab substrate (topology database +
verifier) to the simulator-backed replay service and the localizer.

In the wild every step can fail: replays abort, traceroutes time out,
topology entries go stale, measurements arrive corrupted (the Wehe
case study, arXiv:2102.04196, reports these as the dominant source of
inconclusive tests).  The coordinator therefore degrades gracefully
instead of raising: transient failures are retried with exponential
backoff across *all* candidate server pairs, subject to a per-test
attempt/time budget (:class:`~repro.faults.RetryPolicy`), and every
outcome is a structured :class:`CoordinatedReport` terminal status.
"""

import enum
import time
import warnings
import zlib
from collections import Counter, deque
from dataclasses import dataclass, field

import numpy as np

from repro.core.localizer import WeHeYLocalizer
from repro.experiments.runner import NetsimReplayService
from repro.netsim.multipath import EPHEMERAL_PORT_HI, EPHEMERAL_PORT_LO
from repro.obs import metrics as _obs
from repro.obs import span as _span
from repro.faults import (
    FaultSite,
    ReplayAbortedError,
    RetryBudget,
    RetryPolicy,
    TracerouteTimeoutError,
    maybe_fire,
)
from repro.wehe.apps import make_trace
from repro.wehe.traces import bit_invert

#: RTT assumed for a path whose traceroute reported no usable hops --
#: the historical median of the deployment's server-client RTTs.  Using
#: it is a degradation, so it is surfaced via a warning and the
#: coordinator's ``traceroute_fallback_rtt`` telemetry counter.
TRACEROUTE_FALLBACK_RTT_S = 0.035


class TracerouteFallbackWarning(UserWarning):
    """A traceroute produced no hops; the fallback RTT was used."""


class CoordinationStatus(enum.Enum):
    """What happened to one coordinated WeHeY test."""

    COMPLETED = "completed"
    NO_TOPOLOGY = "no-suitable-topology"
    DISCARDED_TOPOLOGY_CHANGED = "discarded-topology-changed"
    REPLAY_FAILED = "replay-failed"
    TRACEROUTE_FAILED = "traceroute-failed"
    INVALID_MEASUREMENTS = "invalid-measurements"
    RETRIES_EXHAUSTED = "retries-exhausted"


#: Failures worth retrying on another candidate pair.  A topology
#: change is not among them: Section 3.4 discards the measurements and
#: ends the test (the next invocation will pick a surviving pair).
RETRYABLE_STATUSES = frozenset(
    {
        CoordinationStatus.REPLAY_FAILED,
        CoordinationStatus.TRACEROUTE_FAILED,
        CoordinationStatus.INVALID_MEASUREMENTS,
    }
)


@dataclass(frozen=True)
class AttemptRecord:
    """One attempt within a coordinated test (for the report's audit log)."""

    index: int
    server_pair: tuple
    failure: CoordinationStatus  # None when the attempt succeeded
    reason: str
    backoff_s: float = 0.0
    #: the ephemeral source-port pair drawn for a multipath re-hash
    #: retry (None for ordinary attempts using derived default ports).
    ports: tuple = None


@dataclass(frozen=True)
class CoordinatedReport:
    """Outcome of a coordinated test."""

    status: CoordinationStatus
    client_name: str
    server_pair: tuple = None
    localization: object = None  # LocalizationReport when COMPLETED
    attempts: tuple = field(default_factory=tuple)

    @property
    def localized(self):
        return (
            self.status is CoordinationStatus.COMPLETED
            and self.localization.localized
        )

    @property
    def n_attempts(self):
        return len(self.attempts)


def replay_entropy(client_name, attempt_index=0):
    """Stable per-client replay entropy.

    ``hash()`` is salted per interpreter run (PYTHONHASHSEED), which
    made coordinated results irreproducible across processes; CRC-32 is
    stable everywhere.  ``attempt_index`` decorrelates retries so a
    retried replay does not deterministically reproduce the failure
    conditions of the first one.
    """
    base = zlib.crc32(client_name.encode("utf-8"))
    return (base + attempt_index) % (2**31)


def rtts_from_traceroutes(
    internet, rng, server_pair, client, fault_injector=None, telemetry=None
):
    """Estimate the two path RTTs from fresh traceroute measurements.

    The last hop's RTT approximates the one-way forward delay; the
    paper's client uses such measurements when configuring the replay.
    A traceroute with no usable hops degrades to
    :data:`TRACEROUTE_FALLBACK_RTT_S` (warned about and counted in
    ``telemetry``); a timed-out traceroute raises
    :class:`~repro.faults.TracerouteTimeoutError` for the caller's
    retry logic.
    """
    from repro.mlab.traceroute import run_traceroute

    servers = {s.name: s for s in internet.servers}
    rtts = []
    for name in server_pair:
        record = run_traceroute(
            internet, servers[name], client, rng, fault_injector=fault_injector
        )
        if record.hops:
            rtts.append(max(2.0 * record.hops[-1].rtt_ms / 1e3, 0.01))
        else:
            warnings.warn(
                f"traceroute {name} -> {client.name} returned no hops; "
                f"assuming {TRACEROUTE_FALLBACK_RTT_S * 1e3:.0f} ms RTT",
                TracerouteFallbackWarning,
                stacklevel=2,
            )
            if telemetry is not None:
                telemetry["traceroute_fallback_rtt"] += 1
            rtts.append(TRACEROUTE_FALLBACK_RTT_S)
    return tuple(rtts)


def rehash_recovery(report, localize, ports_rng, budget):
    """Bounded port-redraw retries after a multipath-suspect report.

    Each retry re-draws both replays' ephemeral source ports from
    ``ports_rng``, which re-hashes them across the bundle; with N
    members a draw co-hashes them with probability 1/N, so a small
    ``budget`` almost surely lands at least one genuinely-shared
    attempt.  ``localize(ports)`` runs one localization on the drawn
    ports and returns its report.

    The chain persists until a *localized* verdict (recovery) or the
    budget runs out: once suspicion is established, a single re-hash
    draw that comes back empty-handed (``no-common-bottleneck``,
    ``not-confirmed-both-paths``) may itself be split-path collateral,
    so it never overwrites the suspect finding.  An invalid retry or an
    aborted retry replay (:class:`~repro.faults.ReplayAbortedError`)
    ends the chain and keeps the last honest report.  An exhausted
    budget keeps the suspect report: the suspicion is the finding.

    Returns ``(report, recovered)``.  The coordinator and the multipath
    claim (:mod:`repro.claims.multipath`) both run this loop.
    """
    for _ in range(budget):
        ports = tuple(
            int(port)
            for port in ports_rng.integers(
                EPHEMERAL_PORT_LO, EPHEMERAL_PORT_HI + 1, size=2
            )
        )
        try:
            retried = localize(ports)
        except ReplayAbortedError:
            break
        if retried.invalid:
            break
        if retried.localized:
            return retried, True
        if retried.multipath_suspect:
            # Suspicion stands; keep the freshest suspect evidence.
            report = retried
    return report, False


class WeHeYCoordinator:
    """Runs coordinated WeHeY tests against a ground-truth scenario.

    Parameters:
        internet: the synthetic internet (routes, servers, clients).
        database: a TC :class:`~repro.mlab.topology_construction.TopologyDatabase`.
        verifier: a :class:`~repro.mlab.verification.TopologyVerifier`.
        scenario: the ground-truth :class:`ScenarioConfig` describing
            the client ISP's differentiation behaviour (limiter
            placement, severity); RTTs are overridden per server pair.
        rng: numpy Generator.
        tdiff: T_diff samples for the throughput comparison.
        retry_policy: a :class:`~repro.faults.RetryPolicy`; the default
            allows three attempts with exponential backoff.
        fault_injector: optional :class:`~repro.faults.FaultInjector`
            threaded through every layer (traceroutes, replay service,
            topology lookups) for deterministic failure testing.
        clock / sleep: time source and delay callable for the retry
            budget.  The default accounts backoff virtually without
            sleeping; pass ``sleep=time.sleep`` in a real deployment.
        preflight_verify: re-verify each candidate entry *before*
            spending replays on it.  Off by default (the paper's flow
            verifies after the test); turn it on when routes are known
            to be in flux -- e.g. under a route-dynamics schedule --
            so stale entries are invalidated for the price of two
            traceroutes instead of a discarded measurement.
    """

    def __init__(
        self,
        internet,
        database,
        verifier,
        scenario,
        rng,
        tdiff,
        retry_policy=None,
        fault_injector=None,
        clock=time.monotonic,
        sleep=None,
        preflight_verify=False,
        multipath_rehash_retries=4,
    ):
        self.internet = internet
        self.database = database
        self.verifier = verifier
        self.scenario = scenario
        self.rng = rng
        self.tdiff = tdiff
        self.retry_policy = retry_policy or RetryPolicy()
        self.fault_injector = fault_injector
        self.telemetry = Counter()
        self._clock = clock
        self._sleep = sleep
        self.preflight_verify = preflight_verify
        # Wehe's port-change tactic, mirrored: when the localizer
        # reports multipath-suspect / flowlet-split, re-draw the client
        # ephemeral ports (forcing a fresh ECMP hash) and rerun, at
        # most this many times per attempt.  Seeded draws -- every
        # retry's port tuple is reproducible per (scenario seed,
        # client, attempt).
        self.multipath_rehash_retries = multipath_rehash_retries

    def run_test(self, client_name, app="netflix"):
        """One full WeHeY invocation for ``client_name``.

        Never raises on pipeline failures: every outcome -- success,
        missing topology, discarded measurements, aborted replays,
        traceroute timeouts, corrupted measurements, exhausted retries
        -- comes back as a :class:`CoordinatedReport` whose ``attempts``
        log records what was tried.
        """
        with _span("coordinator.run_test", client=client_name, app=app) as rec:
            report = self._run_test(client_name, app)
            if rec is not None:
                rec["attrs"].update(
                    status=report.status.value, attempts=report.n_attempts
                )
            if _obs.ENABLED:
                _obs.SINK.inc("coordinator.tests")
                _obs.SINK.inc("coordinator.attempts", report.n_attempts)
                _obs.SINK.inc(f"coordinator.status.{report.status.value}")
            return report

    def _run_test(self, client_name, app):
        client = self.internet.find_client(client_name)
        candidates = deque(self.database.lookup(client.ip, client.asn))
        if not candidates:
            return CoordinatedReport(
                status=CoordinationStatus.NO_TOPOLOGY, client_name=client_name
            )

        # Full-jitter backoff, drawn from the fault injector's dedicated
        # stream: reproducible per (seed, profile), and advancing it
        # never perturbs any fault site's schedule.
        jitter_rng = getattr(self.fault_injector, "backoff_rng", None)
        budget = RetryBudget(
            self.retry_policy,
            clock=self._clock,
            sleep=self._sleep,
            jitter_rng=jitter_rng,
        )
        attempts = []
        while candidates and budget.allows_another():
            entry = candidates[0]
            if maybe_fire(self.fault_injector, FaultSite.STALE_TOPOLOGY):
                # The entry no longer reflects reality (decommissioned
                # server, long-gone route): drop it and move on without
                # charging the retry budget -- nothing was measured.
                self.database.invalidate(entry)
                candidates.popleft()
                self.telemetry["stale_topology_entries"] += 1
                attempts.append(
                    AttemptRecord(
                        index=len(attempts),
                        server_pair=entry.server_pair,
                        failure=CoordinationStatus.NO_TOPOLOGY,
                        reason="stale topology entry",
                    )
                )
                continue

            if self.preflight_verify and not self.verifier.verify(
                entry, client.name
            ):
                # The routes moved since TC built this entry.  Drop it
                # now -- two traceroutes are far cheaper than a replay
                # pair that post-replay verification would discard.
                self.database.invalidate(entry)
                candidates.popleft()
                self.telemetry["preflight_stale"] += 1
                if _obs.ENABLED:
                    _obs.SINK.inc("coordinator.preflight_stale")
                attempts.append(
                    AttemptRecord(
                        index=len(attempts),
                        server_pair=entry.server_pair,
                        failure=CoordinationStatus.NO_TOPOLOGY,
                        reason="preflight: topology changed",
                    )
                )
                continue

            budget.charge_attempt()
            self.telemetry["attempts"] += 1
            failure, reason, localization, rehashes = self._attempt(
                client, entry, app, budget.attempts_used - 1
            )
            for ports, reason_code in rehashes:
                # One audit-log entry per port-redraw retry: which
                # tuple was drawn and what the localizer said to it.
                attempts.append(
                    AttemptRecord(
                        index=len(attempts),
                        server_pair=entry.server_pair,
                        failure=None,
                        reason=f"multipath re-hash retry -> {reason_code}",
                        ports=ports,
                    )
                )

            if failure is None:
                attempts.append(
                    AttemptRecord(
                        index=len(attempts),
                        server_pair=entry.server_pair,
                        failure=None,
                        reason=reason,
                    )
                )
                return CoordinatedReport(
                    status=CoordinationStatus.COMPLETED,
                    client_name=client_name,
                    server_pair=entry.server_pair,
                    localization=localization,
                    attempts=tuple(attempts),
                )

            if failure is CoordinationStatus.DISCARDED_TOPOLOGY_CHANGED:
                # Section 3.4, step 4: discard the measurements,
                # invalidate the entry, end the test.
                self.database.invalidate(entry)
                self.telemetry["topology_invalidated"] += 1
                attempts.append(
                    AttemptRecord(
                        index=len(attempts),
                        server_pair=entry.server_pair,
                        failure=failure,
                        reason=reason,
                    )
                )
                return CoordinatedReport(
                    status=failure,
                    client_name=client_name,
                    server_pair=entry.server_pair,
                    attempts=tuple(attempts),
                )

            # Transient failure: rotate to the next candidate pair and
            # back off before the retry.
            candidates.rotate(-1)
            backoff = 0.0
            if candidates and budget.allows_another():
                backoff = budget.charge_backoff()
                self.telemetry["retries"] += 1
            attempts.append(
                AttemptRecord(
                    index=len(attempts),
                    server_pair=entry.server_pair,
                    failure=failure,
                    reason=reason,
                    backoff_s=backoff,
                )
            )

        status = self._terminal_status(attempts)
        last_pair = attempts[-1].server_pair if attempts else None
        return CoordinatedReport(
            status=status,
            client_name=client_name,
            server_pair=last_pair,
            attempts=tuple(attempts),
        )

    def _attempt(self, client, entry, app, attempt_index):
        """One attempt; returns ``(failure, reason, localization, rehashes)``.

        ``failure`` is ``None`` on success, otherwise the
        :class:`CoordinationStatus` classifying what went wrong.
        ``rehashes`` is the multipath re-hash audit trail: one
        ``(ports, reason_code)`` pair per port-redraw retry, in order.
        """
        rehashes = []
        try:
            rtt_1, rtt_2 = rtts_from_traceroutes(
                self.internet,
                self.rng,
                entry.server_pair,
                client,
                fault_injector=self.fault_injector,
                telemetry=self.telemetry,
            )
        except TracerouteTimeoutError as exc:
            return CoordinationStatus.TRACEROUTE_FAILED, str(exc), None, rehashes

        config = self.scenario.with_(
            rtt_1=max(rtt_1, 0.01), rtt_2=max(rtt_2, 0.01)
        )
        # A 1-member bundle is byte-identical to a plain link, so
        # suspicion heuristics only arm on genuinely multipath devices.
        multipath_aware = config.multipath >= 2

        def run_localization(replay_ports):
            service = NetsimReplayService(
                config,
                entropy=replay_entropy(client.name, attempt_index),
                fault_injector=self.fault_injector,
                replay_ports=replay_ports,
            )
            trace = make_trace(app, config.duration, service._trace_rng)
            localizer = WeHeYLocalizer(
                self.rng, self.tdiff, multipath_aware=multipath_aware
            )
            return localizer.localize(service, trace, bit_invert(trace))

        try:
            report = run_localization(None)
        except ReplayAbortedError as exc:
            return CoordinationStatus.REPLAY_FAILED, str(exc), None, rehashes
        if report.invalid:
            return (
                CoordinationStatus.INVALID_MEASUREMENTS,
                report.reason_code,
                report,
                rehashes,
            )

        if report.multipath_suspect and self.multipath_rehash_retries > 0:
            report = self._rehash_recovery(
                report, run_localization, client, attempt_index, rehashes
            )

        # Section 3.4, step 4: re-verify the topology after the replays.
        if not self.verifier.verify(entry, client.name):
            return (
                CoordinationStatus.DISCARDED_TOPOLOGY_CHANGED,
                "routes changed during the test",
                None,
                rehashes,
            )
        return None, "completed", report, rehashes

    def _rehash_recovery(self, report, run_localization, client, attempt_index,
                         rehashes):
        """:func:`rehash_recovery` on this attempt's own port stream.

        The port stream is seeded from ``(scenario seed, client,
        attempt)`` -- its own :class:`~numpy.random.SeedSequence`
        branch, so drawing ports never perturbs ``self.rng`` (which
        feeds the localizer's Monte-Carlo subsampling).  Each retry is
        counted and logged in ``rehashes`` as ``(ports, reason_code)``.
        """
        ports_rng = np.random.default_rng(
            np.random.SeedSequence(
                [0xEC49, self.scenario.seed,
                 replay_entropy(client.name, attempt_index)]
            )
        )

        def retry(ports):
            self.telemetry["multipath_retries"] += 1
            if _obs.ENABLED:
                _obs.SINK.inc("coordinator.multipath_retries")
            try:
                retried = run_localization(ports)
            except ReplayAbortedError:
                rehashes.append((ports, "replay-aborted"))
                raise
            rehashes.append((ports, retried.reason_code))
            return retried

        report, recovered = rehash_recovery(
            report, retry, ports_rng, self.multipath_rehash_retries
        )
        if recovered:
            self.telemetry["multipath_recovered"] += 1
            if _obs.ENABLED:
                _obs.SINK.inc("coordinator.multipath_recovered")
        return report

    @staticmethod
    def _terminal_status(attempts):
        """Status when the attempt loop ended without a success.

        All entries stale -> NO_TOPOLOGY; every real attempt failing
        the same way -> that failure's status (more diagnostic than a
        generic label); mixed failures -> RETRIES_EXHAUSTED.
        """
        if not attempts:
            # The time budget expired before anything could run.
            return CoordinationStatus.RETRIES_EXHAUSTED
        real_failures = {
            a.failure
            for a in attempts
            if a.failure is not CoordinationStatus.NO_TOPOLOGY
        }
        if not real_failures:
            return CoordinationStatus.NO_TOPOLOGY
        if len(real_failures) == 1:
            return next(iter(real_failures))
        return CoordinationStatus.RETRIES_EXHAUSTED
