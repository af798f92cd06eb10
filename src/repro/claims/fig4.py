"""Claim: Figure 4 -- ISP5's delayed fixed-rate throttling.

Paper: against ISP5, throughput drops to 2.5 Mb/s after ~22 s in the
single replay but after ~5 s in the simultaneous one (two servers
stream at once, so the data-volume trigger trips earlier), which is
why the throughput comparison fails there.  One cell; ``quick`` runs
it unchanged.
"""

import numpy as np

from repro.experiments.wild import WILD_ISPS, WildReplayService
from repro.wehe.apps import make_trace

MAX_ONSET_RATIO = 0.75  # simultaneous onset / single onset
MIN_EARLY_LATE = 1.5  # single replay: first quarter / last quarter throughput


def throttle_onset(samples, duration, threshold_bps, smooth=7):
    """First time the smoothed throughput stays below the threshold.

    Video replays are chunky (burst, idle, burst); a moving average
    over ~3 s removes the chunk texture before the onset scan.
    """
    smoothed = np.convolve(samples, np.ones(smooth) / smooth, mode="same")
    below = smoothed < threshold_bps
    for i, t in enumerate(np.linspace(0, duration, len(smoothed))):
        if below[i:].mean() > 0.9:
            return float(t)
    return duration


def measure(quick):
    isp = WILD_ISPS["ISP5"]
    service = WildReplayService(isp, "netflix", seed=2, duration=45.0)
    trace = make_trace("netflix", service.duration, service._trace_rng)
    x = service.single_replay(trace)
    simultaneous = service.simultaneous_replay(trace)
    s1, s2 = simultaneous.samples_1, simultaneous.samples_2
    aggregate = s1[: len(s2)] + s2[: len(s1)]
    threshold = isp.throttle_rate_bps * 1.3
    return {
        "single_mean_mbps": float(x.mean()) / 1e6,
        "simultaneous_mean_mbps": float(aggregate.mean()) / 1e6,
        "onset_single_s": throttle_onset(x, service.duration, threshold),
        "onset_simultaneous_s": throttle_onset(aggregate, service.duration, threshold),
        "early_mbps": float(x[: len(x) // 4].mean()) / 1e6,
        "late_mbps": float(x[-len(x) // 4 :].mean()) / 1e6,
    }


def failures(report):
    single, simultaneous = report["onset_single_s"], report["onset_simultaneous_s"]
    early, late = report["early_mbps"], report["late_mbps"]
    checks = [
        (simultaneous < MAX_ONSET_RATIO * single,
         f"simultaneous onset {simultaneous:.1f} s >= {MAX_ONSET_RATIO}x "
         f"single onset {single:.1f} s"),
        (early > MIN_EARLY_LATE * late,
         f"early single-replay throughput {early:.2f} Mb/s <= "
         f"{MIN_EARLY_LATE}x late {late:.2f} Mb/s"),
    ]
    return [message for ok, message in checks if not ok]
