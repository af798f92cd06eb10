"""Helpers shared by the workload modules."""

import os
import resource
import signal
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

#: Set-ups per run; ``setup_s`` reports their median.
SETUP_REPEATS = 9

#: Where runs keep scratch state (stores) and write their spans.
OUT_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), ".perfbench"
)


@dataclass
class Outcome:
    """What one workload run reports back to ``run.py``."""

    metrics: dict
    attempted: int
    failed: int
    problems: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    @property
    def correct(self):
        return not self.problems


def timed(fn, *args, **kwargs):
    """``(result, wall seconds)`` of one call."""
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - start


class NormalizedClock:
    """Wall time rescaled to the speed of the reference host.

    Shared hosts change speed by tens of percent for seconds to minutes
    at a time, which swamps program changes of a few percent.  While the
    clock is entered, a ``SIGALRM`` every :data:`INTERVAL` seconds runs a
    fixed pure-Python probe loop on the benchmark's own thread.  A timed
    call's wall time, minus the probes taken inside it, is scaled by
    ``PROBE_S / mean(probe time)``: a slow phase stretches the probes as
    much as the call, and the ratio cancels it.  The result reads in
    ``norm_s``, about a second on an unloaded core of the reference
    host.  Forked workers inherit no timer, so they are never probed.
    """

    INTERVAL = 0.05
    PROBE_LOOP = 20_000
    #: Seconds the probe loop takes on an unloaded reference core.
    PROBE_S = 0.0015
    #: Probes that make a speed estimate.
    RECENT = 10

    def __init__(self):
        self.samples = []  # (start, seconds) of every probe
        self.last_wall = 0.0
        self._previous = None

    def _probe(self, *_signal):
        start = time.perf_counter()
        total = 0
        for i in range(self.PROBE_LOOP):
            total += i * i
        self.samples.append((start, time.perf_counter() - start))

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL, self.INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def scale(self, seconds):
        """Normalize ``seconds`` of wall time just spent by the latest probes.

        For work shorter than a few intervals, which holds few or no
        probes of its own; the latest probes say how fast the host runs
        right now.
        """
        while len(self.samples) < self.RECENT:
            self._probe()
        probes = [seconds for _start, seconds in self.samples[-self.RECENT:]]
        return seconds * self.PROBE_S / statistics.fmean(probes)

    def time(self, fn, *args, **kwargs):
        """``(result, normalized seconds)`` of one call; :attr:`last_wall` keeps its wall."""
        first = len(self.samples)
        result, wall = timed(fn, *args, **kwargs)
        inside = [seconds for _start, seconds in self.samples[first:]]
        busy = wall - sum(inside)
        self.last_wall = wall
        if len(inside) >= self.RECENT:
            return result, busy * self.PROBE_S / statistics.fmean(inside)
        return result, self.scale(busy)


def median_setup(setup, *args):
    """Run ``setup(*args)`` :data:`SETUP_REPEATS` times.

    Returns the last state and the median normalized seconds.
    """
    seconds = []
    state = None
    with NormalizedClock() as clock:
        for _ in range(SETUP_REPEATS):
            state, normalized = clock.time(setup, *args)
            seconds.append(normalized)
    return state, statistics.median(seconds)


def run_rounds(seconds, body):
    """Closed loop: call ``body(index)`` until the next round would overrun.

    At least one round runs.
    """
    start = time.perf_counter()
    index = 0
    while True:
        round_start = time.perf_counter()
        body(index)
        index += 1
        now = time.perf_counter()
        if now - start + (now - round_start) > seconds:
            return


def peak_rss_mb():
    """Peak resident memory of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def fresh_program_caches():
    """Empty the program's trace memos so two passes do the same work.

    ``make_trace`` and ``poissonize`` memoize on RNG state; a traced pass
    that repeats an untraced pass's cells would otherwise skip trace
    generation and understate the tracing overhead.
    """
    from repro.wehe import apps, traces

    apps._TRACE_CACHE.clear()
    traces._POISSONIZE_CACHE.clear()


def derive_seeds(seed, count, salt):
    """``count`` scenario seeds derived from the run seed and a salt."""
    sequence = np.random.SeedSequence([seed, salt])
    return [int(value) for value in sequence.generate_state(count) % 1_000_000]


def counter(snapshot, name):
    """A ``repro.obs`` counter from a snapshot (0 when absent)."""
    return snapshot["counters"].get(name, 0) if snapshot else 0


def spans_path(workload):
    """Where the traced run of ``workload`` writes its spans."""
    os.makedirs(OUT_DIR, exist_ok=True)
    return os.path.join(OUT_DIR, f"spans-{workload}.jsonl")
