"""Measurement capture.

``FlowCapture`` is the client-side tap: it records per-arrival
timestamps and bytes, from which the harness derives the 100-interval
throughput samples WeHe compares (Section 2.1) and the X / Y sets of the
throughput-comparison algorithm (Section 4.1).

``PathMeasurements`` is what the common-bottleneck detectors consume:
per-path transmission timestamps plus loss-event timestamps (server-side
retransmissions for TCP, client-side gaps for UDP), convertible into the
per-interval (lost, transmitted) time series of Algorithm 1.
"""

import numpy as np


class FlowCapture:
    """Per-flow arrival log with throughput binning helpers."""

    def __init__(self):
        self.times = []
        self.bytes = []
        self.mark_times = []  # arrivals carrying an ECN congestion mark

    def on_arrival(self, now, nbytes, marked=False):
        # TcpReceiver.receive appends to these lists itself.
        self.times.append(now)
        self.bytes.append(nbytes)
        if marked:
            self.mark_times.append(now)

    @property
    def total_bytes(self):
        return float(sum(self.bytes))

    @property
    def marks(self):
        """Number of ECN-marked arrivals seen so far."""
        return len(self.mark_times)

    def mark_fraction(self):
        """Fraction of arrivals carrying an ECN mark (0.0 when empty)."""
        if not self.times:
            return 0.0
        return len(self.mark_times) / len(self.times)

    def duration(self):
        if not self.times:
            return 0.0
        return self.times[-1] - self.times[0]

    def throughput_samples(self, n_intervals=100, t_start=None, t_end=None):
        """Per-interval throughput in bits/s, WeHe-style (100 intervals).

        Empty captures return an empty array.  ``t_start``/``t_end``
        default to the first/last arrival.
        """
        if not self.times:
            return np.array([])
        times = np.asarray(self.times)
        nbytes = np.asarray(self.bytes, dtype=float)
        lo = times[0] if t_start is None else t_start
        hi = times[-1] if t_end is None else t_end
        if hi <= lo:
            return np.array([])
        edges = np.linspace(lo, hi, n_intervals + 1)
        sums, _ = np.histogram(times, bins=edges, weights=nbytes)
        width = edges[1] - edges[0]
        return sums * 8.0 / width

    def mean_throughput(self):
        """Average throughput in bits/s over the capture's span."""
        span = self.duration()
        if span <= 0:
            return 0.0
        return self.total_bytes * 8.0 / span


class PathMeasurements:
    """Loss/transmission logs for one path of a simultaneous replay.

    Attributes:
        send_times: timestamps of every transmitted packet.
        loss_times: timestamps at which loss events were *registered*
            (server-side retransmission detections for TCP; expected
            arrival times of missing datagrams for UDP).
        rtt: representative round-trip time, used by Algorithm 1 to set
            its interval-size sweep.
    """

    def __init__(self, send_times, loss_times, rtt):
        self.send_times = np.asarray(sorted(send_times), dtype=float)
        self.loss_times = np.asarray(sorted(loss_times), dtype=float)
        if rtt <= 0:
            raise ValueError("rtt must be positive")
        self.rtt = rtt

    @property
    def packets_sent(self):
        return len(self.send_times)

    @property
    def packets_lost(self):
        return len(self.loss_times)

    @property
    def loss_rate(self):
        if self.packets_sent == 0:
            return 0.0
        return self.packets_lost / self.packets_sent

    def time_span(self):
        times = []
        if len(self.send_times):
            times.extend((self.send_times[0], self.send_times[-1]))
        if len(self.loss_times):
            times.extend((self.loss_times[0], self.loss_times[-1]))
        if not times:
            return 0.0, 0.0
        return min(times), max(times)


def binned_loss_counts(measurements_1, measurements_2, interval):
    """Per-interval packet counts over the two paths' common time span.

    Divides the span into whole intervals of ``interval`` seconds and
    returns ``(sent_1, sent_2, lost_1, lost_2)`` count arrays, or None
    when the span is shorter than one interval.
    """
    lo1, hi1 = measurements_1.time_span()
    lo2, hi2 = measurements_2.time_span()
    lo, hi = min(lo1, lo2), max(hi1, hi2)
    if hi - lo < interval:
        return None
    n_bins = int((hi - lo) / interval)
    edges = lo + np.arange(n_bins + 1) * interval
    return tuple(
        np.histogram(times, bins=edges)[0]
        for times in (
            measurements_1.send_times,
            measurements_2.send_times,
            measurements_1.loss_times,
            measurements_2.loss_times,
        )
    )


def binned_loss_series(measurements_1, measurements_2, interval, min_packets=10):
    """Create the paired loss-rate time series of Algorithm 1, line 4.

    Divides the common time span into intervals of ``interval`` seconds,
    counts transmitted and lost packets per interval and per path, then
    discards intervals where either path transmitted fewer than
    ``min_packets`` packets or where neither path lost anything.

    Returns ``(loss_rate_1, loss_rate_2)`` as numpy arrays (possibly
    empty).
    """
    counts = binned_loss_counts(measurements_1, measurements_2, interval)
    if counts is None:
        return np.array([]), np.array([])
    txed1, txed2, lost1, lost2 = counts
    keep = (
        (txed1 >= min_packets)
        & (txed2 >= min_packets)
        & ((lost1 > 0) | (lost2 > 0))
    )
    if not np.any(keep):
        return np.array([]), np.array([])
    return lost1[keep] / txed1[keep], lost2[keep] / txed2[keep]
