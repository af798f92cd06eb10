"""From-scratch statistics used by WeHeY's detection algorithms.

Everything here is implemented directly (and cross-checked against scipy
in the test suite):

- :func:`~repro.stats.ks.ks_2samp` -- two-sample Kolmogorov-Smirnov
  (WeHe's differentiation detector),
- :func:`~repro.stats.mwu.mann_whitney_u` -- one-sided Mann-Whitney U
  (the throughput-comparison test of Section 4.1),
- :func:`~repro.stats.spearman.spearman_test` -- Spearman rank
  correlation with p-value (Algorithm 1's trend test),
- :func:`~repro.stats.montecarlo.relative_mean_difference_distribution`
  -- the O_diff Monte-Carlo machinery of Section 4.1,
- :mod:`~repro.stats.fingerprint` -- shaper fingerprinting at a
  localized bottleneck (nearest-centroid over windowed replay
  features).
"""

from repro.stats.fingerprint import (
    FingerprintReport,
    NearestCentroidClassifier,
    fingerprint_bottleneck,
    replay_features,
    train_fingerprinter,
)
from repro.stats.ks import ks_2samp
from repro.stats.mwu import mann_whitney_u
from repro.stats.montecarlo import relative_mean_difference, relative_mean_difference_distribution
from repro.stats.spearman import rankdata, spearman_rho, spearman_test

__all__ = [
    "ks_2samp",
    "mann_whitney_u",
    "rankdata",
    "spearman_rho",
    "spearman_test",
    "relative_mean_difference",
    "relative_mean_difference_distribution",
    "FingerprintReport",
    "NearestCentroidClassifier",
    "fingerprint_bottleneck",
    "replay_features",
    "train_fingerprinter",
]
