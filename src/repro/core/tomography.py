"""Classic binary-loss tomography and the intermediate designs (Section 4.3).

These are the baselines WeHeY evolved away from; the paper's Figure 6
quantifies how much worse they do, and Figure 3 reproduces the
parameter-sensitivity failure of BinLossTomo.

All algorithms work on the Figure-1 topology: two paths ``p1 = (l1,
lc)`` and ``p2 = (l2, lc)``.  With ``x_k`` the probability that link
sequence ``l_k`` is non-lossy and ``y_i`` / ``y_12`` the (joint)
probabilities that paths are non-lossy, the tomographic system
(System 1) is::

    y_1  = x_c * x_1
    y_2  = x_c * x_2
    y_12 = x_c * x_1 * x_2

which solves to ``x_c = y_1 y_2 / y_12``, ``x_1 = y_12 / y_2``,
``x_2 = y_12 / y_1``.

Note: the paper's printed Algorithm 2 uses a "lossy" indicator in lines
4-8 while its prose defines ``y_i`` as the fraction of intervals in
which the path was *not* lossy; the prose is the consistent reading
(it is what makes System 1 hold), so that is what we implement.
"""

from dataclasses import dataclass

import numpy as np

from repro.netsim.capture import binned_loss_counts

DEFAULT_RTT_MULTIPLES = (10, 15, 20, 25, 30, 35, 40, 45, 50)


@dataclass(frozen=True)
class TomographyResult:
    """Inferred link-sequence performance (probability of being non-lossy)."""

    x_c: float
    x_1: float
    x_2: float
    n_intervals: int


def path_loss_series(measurements_1, measurements_2, interval, min_packets=10):
    """Per-interval loss rates for the two paths (no loss filter).

    Unlike Algorithm 1's series, tomography keeps zero-loss intervals:
    they are exactly the "non-lossy" observations the estimator needs.
    Intervals where either path transmitted fewer than ``min_packets``
    are discarded.
    """
    counts = binned_loss_counts(measurements_1, measurements_2, interval)
    if counts is None:
        return np.array([]), np.array([])
    txed1, txed2, lost1, lost2 = counts
    keep = (txed1 >= min_packets) & (txed2 >= min_packets)
    if not np.any(keep):
        return np.array([]), np.array([])
    return lost1[keep] / txed1[keep], lost2[keep] / txed2[keep]


class BinLossTomo:
    """Algorithm 2: binary loss tomography on the Figure-1 system.

    Parameters ``interval`` (sigma) and ``loss_threshold`` (tau) are the
    two knobs whose sensitivity Section 4.3 demonstrates.
    """

    def __init__(self, interval, loss_threshold, min_packets=10):
        if interval <= 0:
            raise ValueError("interval must be positive")
        if loss_threshold < 0:
            raise ValueError("loss threshold must be non-negative")
        self.interval = interval
        self.loss_threshold = loss_threshold
        self.min_packets = min_packets

    def infer(self, measurements_1, measurements_2):
        """Solve System 1; returns a :class:`TomographyResult`.

        Degenerate inputs (no usable intervals, or the two paths never
        both non-lossy, i.e. ``y_12 = 0``) yield ``x = 0`` across the
        board -- the estimator simply has no information.
        """
        rates_1, rates_2 = path_loss_series(
            measurements_1, measurements_2, self.interval, self.min_packets
        )
        n = len(rates_1)
        if n == 0:
            return TomographyResult(0.0, 0.0, 0.0, 0)
        non_lossy_1 = rates_1 <= self.loss_threshold
        non_lossy_2 = rates_2 <= self.loss_threshold
        y_1 = float(np.mean(non_lossy_1))
        y_2 = float(np.mean(non_lossy_2))
        y_12 = float(np.mean(non_lossy_1 & non_lossy_2))
        if y_12 == 0.0:
            return TomographyResult(0.0, 0.0, 0.0, n)
        return TomographyResult(
            x_c=y_1 * y_2 / y_12,
            x_1=y_12 / y_2 if y_2 > 0 else 0.0,
            x_2=y_12 / y_1 if y_1 > 0 else 0.0,
            n_intervals=n,
        )


class BinLossTomoPlusPlus:
    """Algorithm 3: common bottleneck iff lc performs worse than l1 and l2."""

    def __init__(self, interval, loss_threshold, min_packets=10):
        self._tomo = BinLossTomo(interval, loss_threshold, min_packets)

    def detect(self, measurements_1, measurements_2):
        result = self._tomo.infer(measurements_1, measurements_2)
        return (result.x_1 > result.x_c) and (result.x_2 > result.x_c)


class BinLossTomoNoParams:
    """Algorithm 4: sweep interval sizes and loss thresholds, average gaps.

    Interval sizes span 10-50 RTTs; loss thresholds are chosen so that
    neither path is found lossy too often or too rarely
    (``0.1 <= y_i <= 0.9``).  A common bottleneck is declared iff lc's
    inferred performance is, *on average across all parameter
    combinations*, worse than both non-common links.
    """

    def __init__(
        self,
        rtt_multiples=DEFAULT_RTT_MULTIPLES,
        n_thresholds=19,
        min_packets=10,
    ):
        self.rtt_multiples = tuple(rtt_multiples)
        self.n_thresholds = n_thresholds
        self.min_packets = min_packets

    def candidate_thresholds(self, measurements_1, measurements_2, interval):
        """Thresholds keeping path performance inside [0.1, 0.9]."""
        rates_1, rates_2 = path_loss_series(
            measurements_1, measurements_2, interval, self.min_packets
        )
        if len(rates_1) == 0:
            return []
        pooled = np.concatenate([rates_1, rates_2])
        quantiles = np.quantile(
            pooled, np.linspace(0.05, 0.95, self.n_thresholds)
        )
        thresholds = []
        for tau in np.unique(quantiles):
            y_1 = float(np.mean(rates_1 <= tau))
            y_2 = float(np.mean(rates_2 <= tau))
            if 0.1 <= y_1 <= 0.9 and 0.1 <= y_2 <= 0.9:
                thresholds.append(float(tau))
        return thresholds

    def detect(self, measurements_1, measurements_2, return_gaps=False):
        max_rtt = max(measurements_1.rtt, measurements_2.rtt)
        gaps_1, gaps_2 = [], []
        for multiple in self.rtt_multiples:
            interval = multiple * max_rtt
            for tau in self.candidate_thresholds(
                measurements_1, measurements_2, interval
            ):
                result = BinLossTomo(interval, tau, self.min_packets).infer(
                    measurements_1, measurements_2
                )
                gaps_1.append(result.x_1 - result.x_c)
                gaps_2.append(result.x_2 - result.x_c)
        if not gaps_1:
            detected = False
        else:
            detected = float(np.mean(gaps_1)) > 0 and float(np.mean(gaps_2)) > 0
        if return_gaps:
            return detected, np.asarray(gaps_1), np.asarray(gaps_2)
        return detected


class TrendLossTomo:
    """The V2 intermediate: "lossy" means the loss rate *increased*.

    Labelling a path lossy in an interval when its loss rate rose
    relative to the previous interval removes the loss-threshold knob
    entirely (Section 4.3, V2).  As the paper observes, this
    tomography "infers that the common link sequence has worse
    performance iff it determines that the performance of the two
    paths was correlated" -- so the per-size verdict is a significance
    test on the correlation of the binary increase indicators, and the
    overall verdict is a majority vote over the interval sizes.
    """

    def __init__(self, rtt_multiples=DEFAULT_RTT_MULTIPLES, alpha=0.05, min_packets=10):
        self.rtt_multiples = tuple(rtt_multiples)
        self.alpha = alpha
        self.min_packets = min_packets

    def detect(self, measurements_1, measurements_2):
        from repro.stats.spearman import spearman_test

        max_rtt = max(measurements_1.rtt, measurements_2.rtt)
        votes = 0
        total = 0
        for multiple in self.rtt_multiples:
            interval = multiple * max_rtt
            rates_1, rates_2 = path_loss_series(
                measurements_1, measurements_2, interval, self.min_packets
            )
            if len(rates_1) < 4:
                continue
            increased_1 = (np.diff(rates_1) > 0).astype(float)
            increased_2 = (np.diff(rates_2) > 0).astype(float)
            total += 1
            test = spearman_test(increased_1, increased_2, alternative="greater")
            if test.pvalue < self.alpha:
                votes += 1
        if total == 0:
            return False
        return votes > total / 2.0
