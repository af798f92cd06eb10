"""Application traces and WeHe/WeHeY trace transformations.

A :class:`Trace` is a prerecorded application session: a schedule of
``(time, size)`` packets plus the plaintext SNI of the service.  WeHe
replays the *original* (SNI intact -- a DPI-based differentiator will
match it) and a *bit-inverted* copy (same sizes and timings, payload
patterns destroyed, so differentiators cannot match it).

WeHeY further modifies the replayed traces (Section 3.4):

- UDP traces get Poisson transmission times (same sizes and average
  rate) so that, by PASTA, loss measurements are unbiased;
- TCP traces are paced by congestion control itself, and are *extended*
  (replayed repeatedly) until the replay lasts at least 45 seconds so
  that enough loss samples accumulate.
"""

from dataclasses import dataclass

import numpy as np

#: Minimum replay duration after extension (Section 3.4).
MIN_REPLAY_DURATION = 45.0


@dataclass(frozen=True)
class Trace:
    """A prerecorded application trace.

    Attributes:
        app: application name (e.g. ``"netflix"``).
        protocol: ``"tcp"`` or ``"udp"``.
        schedule: tuple of ``(time, size)`` pairs, time relative to the
            trace start in seconds, size in payload bytes.
        sni: plaintext server name, or None for bit-inverted traces.
            Differentiation devices match on this (Section 2.1).
    """

    app: str
    protocol: str
    schedule: tuple
    sni: str = None

    def __post_init__(self):
        if self.protocol not in ("tcp", "udp"):
            raise ValueError(f"unknown protocol {self.protocol!r}")
        if not self.schedule:
            raise ValueError("a trace needs at least one packet")
        times = [t for t, _ in self.schedule]
        if any(b < a for a, b in zip(times, times[1:])):
            raise ValueError("trace schedule must be time-sorted")
        if any(size <= 0 for _, size in self.schedule):
            raise ValueError("packet sizes must be positive")

    @property
    def is_original(self):
        """True when the SNI is intact (a differentiator would match)."""
        return self.sni is not None

    @property
    def n_packets(self):
        return len(self.schedule)

    @property
    def total_bytes(self):
        return sum(size for _, size in self.schedule)

    @property
    def duration(self):
        return self.schedule[-1][0] - self.schedule[0][0]

    @property
    def mean_rate_bps(self):
        span = self.duration
        if span <= 0:
            return 0.0
        return self.total_bytes * 8.0 / span


def derived_trace(trace, schedule, sni):
    """A :class:`Trace` like ``trace`` over ``schedule``, without the checks.

    For schedules derived from ``trace``'s, which is already validated,
    in a way that keeps them time-sorted with positive sizes: the same
    schedule, a prefix, a re-timing by a cumulative sum of non-negative
    gaps, or sorted copies.  ``Trace(...)`` re-runs its O(n) checks on
    every construction; callers building from their own data keep
    using it.
    """
    derived = object.__new__(Trace)
    derived.__dict__.update(
        app=trace.app, protocol=trace.protocol, schedule=schedule, sni=sni
    )
    return derived


def bit_invert(trace):
    """The WeHe control trace: identical sizes/timings, SNI destroyed."""
    return derived_trace(trace, trace.schedule, None)


#: Memo of Poisson-modified traces keyed by (source trace, rng state);
#: same exact-replay contract as the ``make_trace`` cache (see
#: :mod:`repro.wehe.apps`): a hit restores the generator to its
#: post-generation state, so cached runs are bit-identical.  Bounded,
#: like that memo, by :func:`memoize`.
_POISSONIZE_CACHE = {}
_POISSONIZE_CACHE_MAX = 4


def memoize(cache, bound, key, value):
    """Store ``value`` under ``key``, evicting the oldest entries past ``bound``.

    The trace memos hold whole traces (a 60 s zoom trace is ~20k
    packets); a verdict asks for several distinct ones and repeats none,
    so a large memo only holds memory -- ~32 MB per localize round at
    256 entries.  Eviction is first in, first out.
    """
    while len(cache) >= bound:
        del cache[next(iter(cache))]
    cache[key] = value


def poissonize(trace, rng):
    """WeHeY's UDP modification (Section 3.4).

    Keeps packet sizes, order, and the average transmission rate, but
    redraws inter-packet gaps from an exponential distribution, making
    the transmission process Poisson.  PASTA then guarantees that the
    per-packet loss observations sample the bottleneck's true loss rate
    without bias.
    """
    if trace.protocol != "udp":
        raise ValueError("poissonize applies to UDP traces only")
    n = trace.n_packets
    if n < 2:
        return trace
    key = (trace, repr(rng.bit_generator.state))
    hit = _POISSONIZE_CACHE.get(key)
    if hit is not None:
        modified, post_state = hit
        rng.bit_generator.state = post_state
        return modified
    mean_gap = trace.duration / (n - 1)
    gaps = rng.exponential(mean_gap, size=n - 1)
    times = np.concatenate([[0.0], np.cumsum(gaps)])
    schedule = tuple(
        (float(t), size) for t, (_, size) in zip(times, trace.schedule)
    )
    # A cumulative sum of non-negative gaps stays sorted.
    modified = derived_trace(trace, schedule, trace.sni)
    memoize(
        _POISSONIZE_CACHE,
        _POISSONIZE_CACHE_MAX,
        key,
        (modified, rng.bit_generator.state),
    )
    return modified


def extend_to_duration(trace, min_duration=MIN_REPLAY_DURATION):
    """Repeat a trace until it spans at least ``min_duration`` seconds.

    The paper extends short traces so replays yield enough loss
    measurements for a reliable conclusion (Section 3.4).
    """
    if trace.duration >= min_duration:
        return trace
    if trace.duration <= 0:
        raise ValueError("cannot extend a zero-duration trace")
    period = trace.duration + _median_gap(trace)
    schedule = list(trace.schedule)
    offset = period
    while schedule[-1][0] < min_duration:
        schedule.extend((t + offset, size) for t, size in trace.schedule)
        offset += period
    # Each copy is sorted (adding one offset keeps the order), so only
    # the seams between copies can be out of order.
    n = trace.n_packets
    if any(schedule[i][0] < schedule[i - 1][0] for i in range(n, len(schedule), n)):
        raise ValueError("trace schedule must be time-sorted")
    return derived_trace(trace, tuple(schedule), trace.sni)


def _median_gap(trace):
    times = [t for t, _ in trace.schedule]
    gaps = [b - a for a, b in zip(times, times[1:])]
    if not gaps:
        return 0.02
    return float(np.median(gaps))
