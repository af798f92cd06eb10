"""Empirical distribution summaries."""

import numpy as np


def summarize(samples):
    """Five-number + mean summary (used by the Figure-5 boxplots)."""
    samples = np.asarray(samples, dtype=float)
    if samples.size == 0:
        raise ValueError("summary of an empty sample")
    q1, median, q3 = np.quantile(samples, [0.25, 0.5, 0.75])
    return {
        "min": float(samples.min()),
        "q1": float(q1),
        "median": float(median),
        "q3": float(q3),
        "max": float(samples.max()),
        "mean": float(samples.mean()),
        "n": int(samples.size),
    }
