"""The WeHeY pipeline (Section 3.1).

When invoked on a client for which WeHe already detected
differentiation on a path ``p0``, WeHeY performs four operations:

1. **Topology construction** -- pick two servers whose paths to the
   client converge exactly once, inside the client's ISP (done ahead of
   time by :mod:`repro.mlab.topology_construction`; the localizer takes
   the chosen topology as given, or queries a topology database).
2. **Simultaneous replays** -- replay the modified original trace on
   p1 and p2 simultaneously, then the modified bit-inverted trace.
3. **Differentiation confirmation** -- rerun WeHe's detector per path;
   unless *both* paths differentiated, output "no evidence".
4. **Common-bottleneck detection** -- first the throughput comparison
   (per-client throttling), then the loss-trend correlation
   (collective throttling); either firing is evidence that the
   differentiation happened inside the target network area.

The localizer is decoupled from the simulator through a *replay
service* interface so it drives the netsim harness, the wild-ISP
models, and unit-test fakes identically.
"""

import enum
from contextlib import closing
from dataclasses import dataclass

import numpy as np

from repro.core.loss_correlation import LossTrendCorrelation
from repro.core.throughput_comparison import (
    ThroughputComparison,
    aggregate_simultaneous_samples,
)
from repro.obs import metrics as _obs
from repro.obs import span as _span
from repro.wehe.detection import detect_differentiation


class LocalizationOutcome(enum.Enum):
    """WeHeY's two possible outputs (Section 1)."""

    EVIDENCE_IN_TARGET_AREA = "evidence-in-target-area"
    NO_EVIDENCE = "no-evidence"


class Mechanism(enum.Enum):
    """Which detector produced the evidence."""

    PER_CLIENT_THROTTLING = "per-client"
    COLLECTIVE_THROTTLING = "collective"
    NONE = "none"


#: Machine-readable prefix marking reports produced by input validation
#: rather than by the detectors.
INVALID_REASON_PREFIX = "invalid:"

#: Fewest throughput samples a replay must deliver (the throughput
#: comparison's Monte-Carlo subsampling needs at least this many).
MIN_THROUGHPUT_SAMPLES = 4

#: Reason codes for suspected ECMP/flowlet confounding (emitted only
#: when the localizer runs ``multipath_aware``): the evidence pattern
#: is inconsistent with a single shared device, so instead of a
#: confident verdict the report asks for a port re-draw (the
#: coordinator's re-hash recovery keys on these codes).
MULTIPATH_SUSPECT = "multipath-suspect"
FLOWLET_SPLIT = "flowlet-split"
SUSPECT_REASON_CODES = frozenset({MULTIPATH_SUSPECT, FLOWLET_SPLIT})

#: Fewest per-path transmissions each half-test window needs before the
#: flowlet regime-change check is meaningful.
MIN_WINDOW_PACKETS = 50


@dataclass(frozen=True)
class LocalizationReport:
    """Everything WeHeY concluded about one test.

    ``reason_code`` is the machine-readable counterpart of ``reason``;
    validation failures use codes of the form ``invalid:<where>:<what>``
    so callers (the coordinator, dashboards) can branch without parsing
    prose.
    """

    outcome: LocalizationOutcome
    mechanism: Mechanism
    reason: str
    confirmation_1: object = None
    confirmation_2: object = None
    throughput_result: object = None
    loss_result: object = None
    reason_code: str = ""
    #: for multipath-suspect reports: the code the localizer would have
    #: emitted with suspect detection off (lets the perf harness derive
    #: the detection-off degradation curve without re-simulating).
    fallback_reason_code: str = ""

    @property
    def localized(self):
        return self.outcome is LocalizationOutcome.EVIDENCE_IN_TARGET_AREA

    @property
    def invalid(self):
        """True iff the inputs were unusable (vs. a genuine no-evidence)."""
        return self.reason_code.startswith(INVALID_REASON_PREFIX)

    @property
    def multipath_suspect(self):
        """True iff the report asks for a re-hash instead of a verdict."""
        return self.reason_code in SUSPECT_REASON_CODES


def _sample_problem(samples, label):
    """Reason code if a throughput-sample series is unusable, else None."""
    arr = np.asarray(samples, dtype=float)
    if arr.size < MIN_THROUGHPUT_SAMPLES:
        return f"{INVALID_REASON_PREFIX}{label}:too-few-samples"
    if not np.all(np.isfinite(arr)):
        return f"{INVALID_REASON_PREFIX}{label}:non-finite-samples"
    if np.any(arr < 0):
        return f"{INVALID_REASON_PREFIX}{label}:negative-samples"
    return None


def _measurement_problem(measurements, label):
    """Reason code if a path's loss measurements are unusable, else None."""
    if measurements.packets_sent == 0:
        return f"{INVALID_REASON_PREFIX}{label}:empty-measurements"
    send = np.asarray(measurements.send_times, dtype=float)
    lost = np.asarray(measurements.loss_times, dtype=float)
    if not (np.all(np.isfinite(send)) and np.all(np.isfinite(lost))):
        return f"{INVALID_REASON_PREFIX}{label}:non-finite-measurements"
    rate = measurements.loss_rate
    if not np.isfinite(rate) or rate < 0:
        return f"{INVALID_REASON_PREFIX}{label}:bad-loss-rate"
    return None


def _simultaneous_problem(result, label):
    """Reason code if a simultaneous-replay result is unusable, else None."""
    for which, samples in ((1, result.samples_1), (2, result.samples_2)):
        problem = _sample_problem(samples, f"{label}-p{which}")
        if problem:
            return problem
    for which, measurements in (
        (1, result.measurements_1),
        (2, result.measurements_2),
    ):
        problem = _measurement_problem(measurements, f"{label}-p{which}")
        if problem:
            return problem
    return None


class SimultaneousReplayResult:
    """What a replay service returns for one simultaneous replay.

    Attributes per path (1 and 2): throughput sample arrays and
    :class:`~repro.netsim.capture.PathMeasurements`.
    """

    def __init__(self, samples_1, samples_2, measurements_1, measurements_2):
        self.samples_1 = samples_1
        self.samples_2 = samples_2
        self.measurements_1 = measurements_1
        self.measurements_2 = measurements_2


def serial_replays(service, original_trace, inverted_trace):
    """A verdict's three replay results, each run when it is asked for."""
    yield service.single_replay(original_trace)
    yield service.simultaneous_replay(original_trace)
    yield service.simultaneous_replay(inverted_trace)


class WeHeYLocalizer:
    """Operations (3) and (4) of the pipeline over a replay service.

    The service must provide:

    - ``single_replay(trace)`` -> throughput samples along p0;
    - ``simultaneous_replay(trace)`` ->
      :class:`SimultaneousReplayResult`.

    It may also provide ``replays(original, inverted)``: an iterator
    over the same three results (single, original simultaneous,
    inverted simultaneous) that may compute them out of order, such as
    :class:`~repro.experiments.runner.OverlappedReplays`.  Without it
    the three calls run one after another.

    Parameters:
        rng: numpy Generator (Monte-Carlo subsampling).
        tdiff: the T_diff sample set (see
            :func:`repro.wehe.corpus.tdiff_distribution`).
        fp_rate: Algorithm 1's acceptable false-positive rate.
        alpha: significance level for the WeHe confirmation and the
            throughput comparison.
        skip_throughput_comparison / skip_loss_correlation: disable one
            detector (used by the evaluation to study them separately).
        multipath_aware: degrade gracefully under ECMP/flowlet
            confounding -- when the evidence pattern is inconsistent
            with one shared device, return ``multipath-suspect`` /
            ``flowlet-split`` instead of a confident wrong verdict.
            Off by default: the legacy pipeline's reports (and bytes)
            are untouched unless the caller opts in.
        suspect_asymmetry / suspect_aggregate_ratio: thresholds of the
            multipath-suspect rules (see ``_multipath_suspicion``).
    """

    def __init__(
        self,
        rng,
        tdiff,
        fp_rate=0.05,
        alpha=0.05,
        skip_throughput_comparison=False,
        skip_loss_correlation=False,
        multipath_aware=False,
        suspect_asymmetry=0.12,
        suspect_aggregate_ratio=2.8,
    ):
        self.rng = rng
        self.tdiff = tdiff
        self.alpha = alpha
        self.throughput_comparison = ThroughputComparison(rng, alpha=alpha)
        self.loss_correlation = LossTrendCorrelation(fp_rate=fp_rate)
        self.skip_throughput_comparison = skip_throughput_comparison
        self.skip_loss_correlation = skip_loss_correlation
        self.multipath_aware = multipath_aware
        self.suspect_asymmetry = suspect_asymmetry
        self.suspect_aggregate_ratio = suspect_aggregate_ratio

    def _invalid(self, code):
        """A NO_EVIDENCE report for unusable inputs (never raises)."""
        return LocalizationReport(
            outcome=LocalizationOutcome.NO_EVIDENCE,
            mechanism=Mechanism.NONE,
            reason=f"measurements unusable ({code})",
            reason_code=code,
        )

    def localize(self, service, original_trace, inverted_trace):
        """Run operations 2-4 and produce a :class:`LocalizationReport`.

        Inputs are validated as they arrive (sample counts, NaN or
        negative values, empty loss logs); unusable measurements yield
        a NO_EVIDENCE report with a machine-readable ``reason_code``
        rather than an exception, and the remaining replays are not
        run.
        """
        with _span("localizer.localize", app=getattr(original_trace, "app", None)) as rec:
            report = self._localize(service, original_trace, inverted_trace)
            if rec is not None:
                rec["attrs"].update(
                    outcome=report.outcome.value,
                    mechanism=report.mechanism.value,
                    reason_code=report.reason_code,
                )
            if _obs.ENABLED:
                _obs.SINK.inc(f"localizer.outcome.{report.outcome.value}")
                _obs.SINK.inc(f"localizer.mechanism.{report.mechanism.value}")
                if report.invalid:
                    _obs.SINK.inc("localizer.invalid")
                if report.multipath_suspect:
                    _obs.SINK.inc(f"localizer.suspect.{report.reason_code}")
            return report

    def _localize(self, service, original_trace, inverted_trace):
        replays = getattr(service, "replays", None)
        if replays is None:
            results = serial_replays(service, original_trace, inverted_trace)
        else:
            results = replays(original_trace, inverted_trace)
        # Closing the iterator on an early exit stops whatever it still
        # has in flight.
        with closing(results):
            x_samples = next(results)
            problem = _sample_problem(x_samples, "single-replay")
            if problem:
                return self._invalid(problem)
            original_sim = next(results)
            problem = _simultaneous_problem(original_sim, "original-sim")
            if problem:
                return self._invalid(problem)
            inverted_sim = next(results)
            problem = _simultaneous_problem(inverted_sim, "inverted-sim")
            if problem:
                return self._invalid(problem)

        confirmation_1 = detect_differentiation(
            original_sim.samples_1, inverted_sim.samples_1, alpha=self.alpha
        )
        confirmation_2 = detect_differentiation(
            original_sim.samples_2, inverted_sim.samples_2, alpha=self.alpha
        )
        if not (confirmation_1.differentiated and confirmation_2.differentiated):
            return LocalizationReport(
                outcome=LocalizationOutcome.NO_EVIDENCE,
                mechanism=Mechanism.NONE,
                reason="differentiation not confirmed on both paths",
                reason_code="not-confirmed-both-paths",
                confirmation_1=confirmation_1,
                confirmation_2=confirmation_2,
            )

        # Suspicion is evaluated before *any* localized verdict: a
        # split replay pair can fake either evidence pattern, so both
        # the per-client and the collective branch are vetoable.
        suspect_code = None
        if self.multipath_aware:
            suspect_code = self._multipath_suspicion(x_samples, original_sim)

        throughput_result = None
        if not self.skip_throughput_comparison:
            y_samples = aggregate_simultaneous_samples(
                original_sim.samples_1, original_sim.samples_2
            )
            throughput_result = self.throughput_comparison.detect(
                x_samples, y_samples, self.tdiff
            )
            if throughput_result.common_bottleneck:
                if suspect_code:
                    return self._suspect_report(
                        suspect_code,
                        "per-client-throttling",
                        confirmation_1,
                        confirmation_2,
                        throughput_result,
                        None,
                    )
                return LocalizationReport(
                    outcome=LocalizationOutcome.EVIDENCE_IN_TARGET_AREA,
                    mechanism=Mechanism.PER_CLIENT_THROTTLING,
                    reason="aggregate simultaneous throughput matches the single replay",
                    reason_code="per-client-throttling",
                    confirmation_1=confirmation_1,
                    confirmation_2=confirmation_2,
                    throughput_result=throughput_result,
                )

        loss_result = None
        if not self.skip_loss_correlation:
            loss_result = self.loss_correlation.detect(
                original_sim.measurements_1, original_sim.measurements_2
            )
            if loss_result.common_bottleneck:
                if suspect_code:
                    # The correlation fired, but the throughput pattern
                    # (or a mid-test regime change) says the two paths
                    # cannot share the limiter: a confident collective
                    # verdict here would localize a device that does
                    # not exist.  Surface the suspicion instead.
                    return self._suspect_report(
                        suspect_code,
                        "collective-throttling",
                        confirmation_1,
                        confirmation_2,
                        throughput_result,
                        loss_result,
                    )
                return LocalizationReport(
                    outcome=LocalizationOutcome.EVIDENCE_IN_TARGET_AREA,
                    mechanism=Mechanism.COLLECTIVE_THROTTLING,
                    reason="loss trends of the two paths are significantly correlated",
                    reason_code="collective-throttling",
                    confirmation_1=confirmation_1,
                    confirmation_2=confirmation_2,
                    throughput_result=throughput_result,
                    loss_result=loss_result,
                )

        if suspect_code:
            return self._suspect_report(
                suspect_code,
                "no-common-bottleneck",
                confirmation_1,
                confirmation_2,
                throughput_result,
                loss_result,
            )

        return LocalizationReport(
            outcome=LocalizationOutcome.NO_EVIDENCE,
            mechanism=Mechanism.NONE,
            reason="no common bottleneck detected",
            reason_code="no-common-bottleneck",
            confirmation_1=confirmation_1,
            confirmation_2=confirmation_2,
            throughput_result=throughput_result,
            loss_result=loss_result,
        )

    def _suspect_report(self, code, fallback_code, confirmation_1,
                        confirmation_2, throughput_result, loss_result):
        reasons = {
            MULTIPATH_SUSPECT: (
                "per-path throughputs are inconsistent with one shared "
                "limiter (asymmetric shares or super-additive aggregate; "
                "ECMP hash collision miss suspected)"
            ),
            FLOWLET_SPLIT: (
                "loss-trend correlation changes regime mid-test -- "
                "consistent with a flowlet re-hash moving a replay "
                "between bundle members"
            ),
        }
        return LocalizationReport(
            outcome=LocalizationOutcome.NO_EVIDENCE,
            mechanism=Mechanism.NONE,
            reason=reasons[code],
            reason_code=code,
            fallback_reason_code=fallback_code,
            confirmation_1=confirmation_1,
            confirmation_2=confirmation_2,
            throughput_result=throughput_result,
            loss_result=loss_result,
        )

    def _multipath_suspicion(self, x_samples, original_sim):
        """ECMP/flowlet-confounding evidence, or None.

        Rule 1 (``multipath-suspect``, *asymmetry*): two replays
        sharing one limiter queue receive near-identical shares of its
        rate -- the qdiscs serve the two identical-pattern flows
        symmetrically, and empirically the per-path means agree within
        a few percent of the single-replay mean.  Replays hashed onto
        *different* members compete against different background mixes,
        so their means diverge.  A gap above ``suspect_asymmetry``
        (fraction of the single-replay mean) is evidence of split
        paths.

        Rule 2 (``multipath-suspect``, *super-additive aggregate*): two
        replays sharing one limiter cannot jointly exceed what that
        limiter grants; when the per-path sum is far above the
        single-replay mean (``suspect_aggregate_ratio`` times it), each
        path is being throttled by its own device -- duplicate limiter
        instances on different bundle members, not one shared one.

        Rule 3 (``flowlet-split``): a flowlet re-hash mid-test moves a
        replay between members, so the loss-trend correlation verdict
        *changes regime* between the first and second half of the test.
        A shared device correlates (or not) consistently across halves.
        """
        x_mean = float(np.mean(np.asarray(x_samples, dtype=float)))
        t1 = float(np.mean(np.asarray(original_sim.samples_1, dtype=float)))
        t2 = float(np.mean(np.asarray(original_sim.samples_2, dtype=float)))
        if x_mean > 0:
            if abs(t1 - t2) > self.suspect_asymmetry * x_mean:
                return MULTIPATH_SUSPECT
            if t1 + t2 > self.suspect_aggregate_ratio * x_mean:
                return MULTIPATH_SUSPECT
        if self._flowlet_regime_change(original_sim):
            return FLOWLET_SPLIT
        return None

    def _flowlet_regime_change(self, original_sim):
        """True iff the two half-test windows disagree on correlation."""
        from repro.netsim.capture import PathMeasurements

        m1, m2 = original_sim.measurements_1, original_sim.measurements_2
        lo1, hi1 = m1.time_span()
        lo2, hi2 = m2.time_span()
        lo, hi = min(lo1, lo2), max(hi1, hi2)
        if hi <= lo:
            return False
        mid = (lo + hi) / 2.0

        def window(measurements, t0, t1):
            send = measurements.send_times
            loss = measurements.loss_times
            return PathMeasurements(
                send[(send >= t0) & (send < t1)],
                loss[(loss >= t0) & (loss < t1)],
                measurements.rtt,
            )

        halves = []
        for t0, t1 in ((lo, mid), (mid, hi)):
            w1, w2 = window(m1, t0, t1), window(m2, t0, t1)
            if min(w1.packets_sent, w2.packets_sent) < MIN_WINDOW_PACKETS:
                return False
            halves.append(
                bool(self.loss_correlation.detect(w1, w2).common_bottleneck)
            )
        return halves[0] != halves[1]
