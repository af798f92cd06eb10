"""Shaper fingerprinting at the localized bottleneck.

Once WeHeY has *localized* differentiation to the common link, the
natural follow-up question is *what mechanism* the ISP deployed there:
a plain token-bucket policer, an AQM (RED / CoDel / PIE), an ECN
marker, a two-rate policer with a boost allowance, or delayed
("conditional") throttling.  Different mechanisms leave different
micro-signatures in measurements WeHe already collects -- loss-event
timing, throughput plateau structure, and (with ECN) congestion marks
-- so classification needs no new probe traffic.

The pipeline:

1. :func:`replay_features` reduces one simultaneous replay (the pair of
   :class:`~repro.wehe.replay.ReplayHandle` objects the runner keeps on
   ``NetsimReplayService.last_simultaneous_handles``) to a fixed vector
   of :data:`FEATURE_NAMES` -- windowed loss/throughput/mark statistics.
2. :class:`NearestCentroidClassifier` is a dependency-free classifier
   over z-normalized feature vectors (no sklearn: fit stores per-class
   centroids, predict returns the nearest by Euclidean distance).
3. :func:`train_fingerprinter` builds a labelled training set by
   running seeded probe replays across a shaper x app x seed grid.
4. :func:`fingerprint_bottleneck` composes with the localizer: it
   classifies only when the report actually localized differentiation
   (anything else returns a no-verdict report with a reason code).

Why these features discriminate:

- token buckets tail-drop in bursts when the bucket runs dry
  (high ``loss_burst_frac``, bursty inter-loss times);
- RED and PIE randomize drops, giving near-Poisson loss interarrivals
  (``loss_iat_cv`` near 1, low burst fraction);
- CoDel head-drops on a deterministic ``interval/sqrt(count)``
  schedule (low interarrival CV);
- the ECN variant marks instead of dropping (``mark_fraction`` is
  essentially a one-feature fingerprint);
- the dual token bucket serves its boost allowance first, so early
  throughput exceeds the steady plateau (``plateau_ratio`` > 1);
- conditional throttling passes traffic untouched until the trigger,
  so the first loss arrives late (``loss_onset``) and losses
  concentrate in the tail of the replay (``late_loss_frac``).
"""

from dataclasses import dataclass, field

import numpy as np

#: The fixed feature vector order (one entry per column).
FEATURE_NAMES = (
    "loss_rate",        # losses / packets sent (mean of the two paths)
    "mark_fraction",    # ECN-marked fraction of client arrivals
    "loss_iat_cv",      # coefficient of variation of inter-loss times
    "loss_burst_frac",  # fraction of inter-loss gaps under 5 ms
    "loss_onset",       # (first loss - replay start) / duration
    "late_loss_frac",   # fraction of losses in the second half
    "plateau_ratio",    # early-window throughput / steady throughput
    "throughput_cv",    # windowed throughput coefficient of variation
    "throughput_slope", # normalized linear trend of windowed throughput
    "loss_window_cv",   # drop clustering across fixed windows
    "queuing_delay",    # mean RTT inflation (TCP; the AQM tell)
    "loss_run_mean",    # mean length of consecutive-packet loss runs
    "loss_gap_cv",      # regularity of gaps between loss runs (CoDel tell)
    "delay_cv",         # queuing-delay oscillation (TCP RTT series)
    "delay_p90",        # 90th-percentile queuing delay (TCP RTT series)
    "loss_xcorr",       # cross-path correlation of windowed loss counts
    "loss_cooccur",     # fraction of path-1 losses echoed on path 2
)

#: Inter-loss gaps below this are one burst (a queue overflowing
#: back-to-back), not independent drop decisions.
BURST_GAP_S = 0.005

#: Windows used for the throughput / loss-clustering series.
N_WINDOWS = 40


def _series_cv(values):
    values = np.asarray(values, dtype=float)
    if len(values) < 2:
        return 0.0
    mean = values.mean()
    if mean <= 0:
        return 0.0
    return float(values.std() / mean)


def _run_structure(loss_times, send_times):
    """Loss *run* statistics: ``(mean run length, run-gap CV)``.

    A "run" is a maximal sequence of losses separated by at most ~2.5
    packet interarrival times -- i.e. (nearly) consecutive packets of
    the flow.  Tail-dropping token buckets lose whole runs when the
    bucket runs dry; RED/PIE drop isolated packets (runs of ~1); CoDel
    drops single heads on a near-deterministic schedule, so the gaps
    *between* runs have a distinctly low coefficient of variation.
    """
    send_iats = np.diff(np.asarray(send_times, dtype=float))
    positive = send_iats[send_iats > 0]
    if len(positive) == 0:
        return 1.0, 1.0
    spacing = float(np.median(positive))
    threshold = max(2.5 * spacing, 0.002)
    gaps = np.diff(loss_times)
    boundaries = np.flatnonzero(gaps > threshold)
    run_lengths = np.diff(np.concatenate(([-1], boundaries, [len(loss_times) - 1])))
    run_starts = loss_times[np.concatenate(([0], boundaries + 1))]
    run_mean = float(run_lengths.mean())
    if len(run_starts) >= 3:
        gap_cv = _series_cv(np.diff(run_starts))
    else:
        gap_cv = 1.0
    return run_mean, gap_cv


def _path_features(handle, estimator, t_start, duration):
    """The per-path half of :func:`replay_features`."""
    measurements = handle.path_measurements(estimator)
    capture = handle.capture
    t_end = t_start + duration

    loss_times = np.asarray(measurements.loss_times, dtype=float)
    loss_rate = measurements.loss_rate

    if len(loss_times) >= 3:
        gaps = np.diff(loss_times)
        positive = gaps[gaps > 0]
        loss_iat_cv = _series_cv(positive) if len(positive) >= 2 else 0.0
        loss_burst_frac = float(np.mean(gaps < BURST_GAP_S))
        loss_run_mean, loss_gap_cv = _run_structure(
            loss_times, measurements.send_times
        )
    else:
        # Too few losses to characterize timing; neutral values.
        loss_iat_cv = 1.0
        loss_burst_frac = 0.0
        loss_run_mean = 1.0
        loss_gap_cv = 1.0

    if len(loss_times):
        loss_onset = float(
            np.clip((loss_times[0] - t_start) / duration, 0.0, 1.0)
        )
        late_loss_frac = float(
            np.mean(loss_times > t_start + duration / 2.0)
        )
        edges = np.linspace(t_start, t_end, N_WINDOWS // 2 + 1)
        counts, _ = np.histogram(loss_times, bins=edges)
        loss_window_cv = _series_cv(counts)
    else:
        loss_onset = 1.0
        late_loss_frac = 0.5
        loss_window_cv = 0.0

    # Queuing-delay dynamics from the sender's RTT sample series (TCP):
    # deep token-bucket FIFOs saturate high and flat, RED oscillates
    # between its thresholds, CoDel/PIE regulate tightly to their
    # targets -- the *distribution* of RTT inflation tells them apart.
    delay_cv = 0.0
    delay_p90 = 0.0
    rtt_samples = getattr(handle.sender, "rtt_samples", None)
    min_rtt = getattr(handle.sender, "min_rtt", None)
    if rtt_samples and min_rtt:
        inflation = np.asarray([r for _, r in rtt_samples]) - min_rtt
        if len(inflation) >= 8:
            delay_cv = _series_cv(inflation)
            delay_p90 = float(np.percentile(inflation, 90))

    samples = capture.throughput_samples(n_intervals=N_WINDOWS)
    if len(samples) >= 8 and samples.mean() > 0:
        head = samples[: max(N_WINDOWS // 4, 1)]
        tail = samples[N_WINDOWS // 2:]
        tail_mean = tail.mean()
        plateau_ratio = float(head.mean() / tail_mean) if tail_mean > 0 else 1.0
        # Steady-state oscillation only: the startup knee lives in
        # plateau_ratio, while token *banking* (a big CIR bucket
        # refilling during background lulls) shows up here.
        throughput_cv = _series_cv(tail) if tail_mean > 0 else 0.0
        x = np.linspace(0.0, 1.0, len(samples))
        slope = np.polyfit(x, samples / samples.mean(), 1)[0]
        throughput_slope = float(slope)
    else:
        plateau_ratio = 1.0
        throughput_cv = 0.0
        throughput_slope = 0.0

    return np.array([
        loss_rate,
        capture.mark_fraction(),
        loss_iat_cv,
        loss_burst_frac,
        loss_onset,
        late_loss_frac,
        plateau_ratio,
        throughput_cv,
        throughput_slope,
        loss_window_cv,
        handle.queuing_delay(),
        loss_run_mean,
        loss_gap_cv,
        delay_cv,
        delay_p90,
    ])


def _joint_features(handles, estimator, t_start, duration):
    """Cross-path features: ``(loss_xcorr, loss_cooccur)``.

    The two simultaneous replays traverse the *same* shaper, so its
    mechanism shows in how their loss processes co-move: a dry token
    bucket or a CoDel dropping episode hits both flows at once (high
    windowed correlation, frequent sub-burst-gap co-occurrence), while
    RED/PIE coin flips drop each flow independently.
    """
    losses = [
        np.asarray(h.path_measurements(estimator).loss_times, dtype=float)
        for h in handles
    ]
    if min(len(times) for times in losses) < 3:
        return 0.0, 0.0
    edges = np.linspace(t_start, t_start + duration, int(duration / 0.1) + 1)
    counts = [np.histogram(times, bins=edges)[0] for times in losses]
    if counts[0].std() == 0 or counts[1].std() == 0:
        xcorr = 0.0
    else:
        xcorr = float(np.corrcoef(counts[0], counts[1])[0, 1])
    gaps = np.min(
        np.abs(losses[0][:, None] - losses[1][None, :]), axis=1
    )
    cooccur = float(np.mean(gaps < BURST_GAP_S))
    return xcorr, cooccur


def replay_features(handles, duration, estimator=None, t_start=None):
    """One simultaneous replay -> the :data:`FEATURE_NAMES` vector.

    ``handles`` is the pair of replay handles from a simultaneous
    replay; both paths traverse the same common-link shaper, so their
    per-path features are averaged and two cross-path features are
    appended.  ``t_start`` defaults to the first handle's replay start.
    """
    if len(handles) != 2:
        raise ValueError("replay_features expects the two simultaneous handles")
    if estimator is None:
        from repro.wehe.loss_measurement import RetransmissionLossEstimator

        estimator = RetransmissionLossEstimator()
    if t_start is None:
        t_start = min(handle.start_at for handle in handles)
    per_path = [
        _path_features(handle, estimator, t_start, duration)
        for handle in handles
    ]
    joint = _joint_features(handles, estimator, t_start, duration)
    return np.concatenate([np.mean(per_path, axis=0), joint])


class _CentroidGroup:
    """One z-normalization + centroid set (one protocol partition).

    ``weights`` are per-feature Fisher scores (between-class spread
    over pooled within-class spread): distances are computed in the
    weighted z-space, so features that separate the classes count for
    more and features that are mostly per-seed noise count for less.
    """

    __slots__ = ("classes", "mean", "scale", "weights", "centroids")

    def __init__(self, classes, mean, scale, weights, centroids):
        self.classes = classes
        self.mean = mean
        self.scale = scale
        self.weights = weights
        self.centroids = centroids


class NearestCentroidClassifier:
    """Nearest-centroid over z-normalized features (dependency-free).

    ``fit`` z-scores each feature column over the training set (zero-
    variance columns are left unscaled) and stores one centroid per
    label; ``predict`` returns the label of the closest centroid in
    Euclidean distance.

    The optional ``groups`` axis partitions the model: samples are
    normalized and matched only against centroids of their own group.
    The fingerprinter groups by transport protocol -- a prober always
    knows whether it replayed TCP or UDP, and the two leave
    structurally different measurements (UDP loss timing is exact
    client-side gap timing; TCP has queuing-delay visibility), so
    cross-protocol variance would otherwise drown the shaper signal.
    """

    def __init__(self):
        self._groups = {}

    @property
    def fitted(self):
        return bool(self._groups)

    @property
    def classes_(self):
        """Sorted union of labels across all groups."""
        classes = set()
        for group in self._groups.values():
            classes.update(group.classes)
        return tuple(sorted(classes))

    @property
    def group_names(self):
        return tuple(sorted(self._groups))

    def fit(self, features, labels, groups=None):
        features = np.asarray(features, dtype=float)
        if features.ndim != 2 or len(features) != len(labels):
            raise ValueError("features must be (n_samples, n_features) "
                             "matching labels")
        if len(features) == 0:
            raise ValueError("cannot fit on an empty training set")
        labels = list(labels)
        if groups is None:
            groups = [None] * len(labels)
        groups = list(groups)
        if len(groups) != len(labels):
            raise ValueError("groups must match labels")
        self._groups = {}
        for name in sorted(set(groups), key=lambda g: (g is not None, g)):
            rows = [i for i, g in enumerate(groups) if g == name]
            sub = features[rows]
            mean = sub.mean(axis=0)
            scale = sub.std(axis=0)
            scale[scale == 0] = 1.0
            z = (sub - mean) / scale
            sub_labels = [labels[i] for i in rows]
            classes = tuple(sorted(set(sub_labels)))
            class_rows = [
                [j for j, lab in enumerate(sub_labels) if lab == cls]
                for cls in classes
            ]
            centroids = np.stack([z[idx].mean(axis=0) for idx in class_rows])
            # Fisher score per feature: spread of the class means over
            # the pooled within-class spread.  One class (or one sample
            # per class) degenerates to uniform weights.
            within = np.stack([z[idx].std(axis=0) for idx in class_rows])
            between = centroids.std(axis=0)
            pooled = within.mean(axis=0)
            fisher = between / np.maximum(pooled, 1e-6)
            if len(classes) < 2 or not np.any(fisher > 0):
                weights = np.ones(features.shape[1])
            else:
                weights = np.minimum(fisher / fisher.mean(), 10.0)
            self._groups[name] = _CentroidGroup(
                classes, mean, scale, weights, centroids
            )
        return self

    def _group(self, group):
        if not self.fitted:
            raise ValueError("classifier is not fitted")
        if group in self._groups:
            return self._groups[group]
        if None in self._groups:  # ungrouped model answers any group
            return self._groups[None]
        known = ", ".join(str(g) for g in sorted(self._groups))
        raise ValueError(f"unknown group {group!r} (trained on: {known})")

    def distances(self, feature_vector, group=None):
        """Per-class distance in the weighted z-space, as ``{label: d}``."""
        sub = self._group(group)
        z = (np.asarray(feature_vector, dtype=float) - sub.mean) / sub.scale
        dists = np.linalg.norm((sub.centroids - z) * sub.weights, axis=1)
        return dict(zip(sub.classes, (float(d) for d in dists)))

    def predict(self, feature_vector, group=None):
        dists = self.distances(feature_vector, group=group)
        return min(dists, key=dists.get)

    def predict_many(self, features, groups=None):
        features = np.asarray(features, dtype=float)
        if groups is None:
            groups = [None] * len(features)
        return [
            self.predict(row, group=group)
            for row, group in zip(features, groups)
        ]

    def centroids(self, group=None):
        """Per-class centroids in z-space, as ``{label: vector}``."""
        sub = self._group(group)
        return {
            cls: sub.centroids[i].copy() for i, cls in enumerate(sub.classes)
        }

    def to_dict(self):
        """Plain-JSON form (the bench artifact embeds fitted models)."""
        if not self.fitted:
            raise ValueError("classifier is not fitted")
        return {
            "feature_names": list(FEATURE_NAMES),
            "groups": {
                ("" if name is None else name): {
                    "classes": list(sub.classes),
                    "mean": [float(v) for v in sub.mean],
                    "scale": [float(v) for v in sub.scale],
                    "weights": [float(v) for v in sub.weights],
                    "centroids": [
                        [float(v) for v in row] for row in sub.centroids
                    ],
                }
                for name, sub in self._groups.items()
            },
        }

    @classmethod
    def from_dict(cls, data):
        self = cls()
        for name, sub in data["groups"].items():
            self._groups[name or None] = _CentroidGroup(
                tuple(sub["classes"]),
                np.asarray(sub["mean"], dtype=float),
                np.asarray(sub["scale"], dtype=float),
                np.asarray(sub["weights"], dtype=float),
                np.asarray(sub["centroids"], dtype=float),
            )
        return self


#: The default training grid's mechanism axis.  PIE is deliberately
#: *included*: its delay-driven drops are the closest confuser to RED's
#: queue-driven ones, which is exactly what the bench accuracy gate
#: should be exercising.
DEFAULT_SHAPERS = ("tbf", "red", "codel", "pie", "ecn", "dual_tbf", "conditional")


def probe_config(shaper, app="netflix", seed=0, duration=10.0, **overrides):
    """A :class:`ScenarioConfig` for one labelled probe replay.

    Probe cells default to ``background_share=0.25``: the replay flows
    then carry most of the shaper's load, so the loss process they
    observe is densely sampled by their own packets -- at the paper's
    default 0.5 share the background aggregate dominates the queue and
    the mechanism's per-drop signature washes out of the thin sample
    the probe sees.
    """
    from repro.experiments.scenarios import ScenarioConfig

    params = overrides.pop("shaper_params", ())
    overrides.setdefault("background_share", 0.25)
    return ScenarioConfig(
        app=app,
        limiter="common",
        duration=duration,
        seed=seed,
        shaper=shaper,
        shaper_params=tuple(params),
        **overrides,
    )


def probe_features(config, entropy=0):
    """Run one probe replay and return its feature vector."""
    from repro.experiments.runner import NetsimReplayService
    from repro.wehe.apps import make_trace

    service = NetsimReplayService(config, entropy=entropy)
    trace = make_trace(config.app, config.duration, service._trace_rng)
    service.simultaneous_replay(trace)
    env = service.last_environment
    return replay_features(
        service.last_simultaneous_handles,
        config.duration,
        estimator=env.loss_estimator(),
    )


def labelled_grid(shapers=DEFAULT_SHAPERS, apps=("netflix", "zoom"),
                  seeds=range(2), duration=10.0):
    """Feature vectors + labels over the shaper x app x seed grid.

    Each probe is one sweep-executor cell (every core; the features do
    not depend on how many).  Returns ``(features, labels, groups)``
    with one row per grid cell, shaper-major; ``groups`` is each cell's
    transport protocol (the classifier's partition axis).
    """
    from repro.parallel import SweepExecutor
    from repro.wehe.apps import APP_SPECS

    seeds = list(seeds)
    cells = [(shaper, app, seed) for shaper in shapers for app in apps for seed in seeds]
    configs = [
        probe_config(shaper, app=app, seed=seed, duration=duration)
        for shaper, app, seed in cells
    ]
    features = SweepExecutor().map(probe_features, configs)
    labels = [shaper for shaper, _app, _seed in cells]
    groups = [APP_SPECS[app].protocol for _shaper, app, _seed in cells]
    return np.asarray(features), labels, groups


def train_fingerprinter(shapers=DEFAULT_SHAPERS, apps=("netflix", "zoom"),
                        seeds=range(2), duration=10.0):
    """A fitted :class:`NearestCentroidClassifier` over seeded probes."""
    features, labels, groups = labelled_grid(
        shapers=shapers, apps=apps, seeds=seeds, duration=duration
    )
    return NearestCentroidClassifier().fit(features, labels, groups=groups)


@dataclass(frozen=True)
class FingerprintReport:
    """What :func:`fingerprint_bottleneck` returns.

    ``shaper`` is the classified mechanism (None when classification
    did not run -- ``reason`` says why: ``"not-localized"`` when the
    localizer produced no common-bottleneck evidence, ``"no-replay"``
    when the service holds no simultaneous-replay handles).
    ``distances`` maps every trained label to its z-space distance, so
    callers can judge the margin between the top candidates.
    """

    shaper: str = None
    reason: str = "ok"
    distances: dict = field(default_factory=dict)
    features: dict = field(default_factory=dict)

    @property
    def classified(self):
        return self.shaper is not None

    def margin(self):
        """Distance gap between the best and second-best candidates."""
        if len(self.distances) < 2:
            return 0.0
        best, runner_up = sorted(self.distances.values())[:2]
        return float(runner_up - best)


def fingerprint_bottleneck(report, service, classifier):
    """Classify the shaper behind a *localized* differentiation verdict.

    ``report`` is the :class:`~repro.core.localizer.LocalizationReport`
    from a completed WeHeY test, ``service`` the
    :class:`~repro.experiments.runner.NetsimReplayService` that ran it
    (its last simultaneous replay provides the measurements), and
    ``classifier`` a fitted :class:`NearestCentroidClassifier`.

    Composition rule: fingerprinting only makes claims about a
    bottleneck the localizer actually found.  A non-localized report
    short-circuits to ``reason="not-localized"`` -- classifying noise
    would be worse than useless.
    """
    if not getattr(report, "localized", False):
        return FingerprintReport(shaper=None, reason="not-localized")
    handles = service.last_simultaneous_handles
    if not handles:
        return FingerprintReport(shaper=None, reason="no-replay")
    env = service.last_environment
    estimator = env.loss_estimator() if env is not None else None
    vector = replay_features(
        handles, service.config.duration, estimator=estimator
    )
    from repro.wehe.apps import APP_SPECS

    protocol = APP_SPECS[service.config.app].protocol
    distances = classifier.distances(vector, group=protocol)
    label = min(distances, key=distances.get)
    return FingerprintReport(
        shaper=label,
        reason="ok",
        distances=distances,
        features=dict(zip(FEATURE_NAMES, (float(v) for v in vector))),
    )


__all__ = [
    "FEATURE_NAMES",
    "DEFAULT_SHAPERS",
    "FingerprintReport",
    "NearestCentroidClassifier",
    "fingerprint_bottleneck",
    "labelled_grid",
    "probe_config",
    "probe_features",
    "replay_features",
    "train_fingerprinter",
]
