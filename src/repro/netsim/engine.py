"""Discrete-event simulation engine.

A minimal, fast event loop: events are ``(time, sequence, handle,
callback, args)`` entries on a binary heap.  The sequence number breaks
ties deterministically, so two runs with the same seed and the same
schedule order produce identical results.

Scheduling is split into two tiers so the hot path stays allocation-free:

- :meth:`Simulator.schedule` / :meth:`Simulator.schedule_at` are
  fire-and-forget.  They push a heap entry whose handle slot is ``None``
  and return nothing -- the overwhelming majority of events (every
  packet transmission, propagation, background arrival) never needs to
  be cancelled, so they never pay for an :class:`EventHandle`.
- :meth:`Simulator.schedule_cancellable` /
  :meth:`Simulator.schedule_at_cancellable` allocate a real handle and
  return it.  Only timer-like callers (TCP RTO/pacing timers, link
  wake-ups) use these.

A source that knows all its event times up front but pushes them one at a
time takes its tie-break numbers in one block first
(:meth:`Simulator.reserve`).  Every ``(when, seq)`` key is then the key
it would have had if the whole schedule had been pushed at once, and
keys are unique, so events pop in the same order either way; only the
heap is smaller.  ``repro.netsim.udp.UdpSender`` streams its datagrams
this way.

A timer that keeps moving later -- the TCP retransmission timer is
re-armed by every advancing ACK -- postpones its handle instead of
cancelling it and pushing a new entry: :meth:`EventHandle.postpone`
only moves ``handle.due``, and when the entry pops before its due time
the loop re-queues it without running or counting it.
"""

import heapq

from repro.obs import metrics as _obs

# Bound once at module level: the schedule methods are the hottest
# non-loop call sites in the engine, and LOAD_GLOBAL(heapq) +
# LOAD_ATTR(heappush) per event is measurable at millions of events.
_heappush = heapq.heappush
_INF = float("inf")


class EventHandle:
    """Handle returned by the ``*_cancellable`` scheduling methods."""

    __slots__ = ("cancelled", "due", "_sim")

    def __init__(self, sim, due):
        self.cancelled = False
        #: Simulated time the callback runs at; see :meth:`postpone`.
        self.due = due
        self._sim = sim

    def cancel(self):
        """Mark the event so the engine skips it when it is popped."""
        if not self.cancelled:
            self.cancelled = True
            self._sim._n_cancelled += 1

    def postpone(self, when):
        """Run the event at ``when`` instead, without a new heap entry.

        ``when`` may not precede the current due time: the heap entry
        stays where it is, and the loop re-queues it at ``due`` when it
        pops early.  To move an event earlier, cancel it and schedule
        a new one.
        """
        if when < self.due:
            raise ValueError(f"cannot postpone to {when}; event is due at {self.due}")
        self.due = when


class Simulator:
    """A discrete-event simulator with a monotonically advancing clock.

    Time is in seconds (float).  Callbacks run exactly once, at the
    simulated time they were scheduled for, in schedule order for ties.
    """

    __slots__ = (
        "_now",
        "_heap",
        "_counter",
        "_running",
        "_n_cancelled",
        "events_processed",
        # Lets tests check that a retired environment was freed.
        "__weakref__",
    )

    def __init__(self):
        self._now = 0.0
        self._heap = []
        # Tie-break sequence: a plain int beats itertools.count() here
        # because the increment inlines into the schedule methods while
        # next() pays a call per event.  Ordering is unchanged.
        self._counter = 0
        self._running = False
        self._n_cancelled = 0
        #: Events executed by :meth:`run` over this simulator's lifetime
        #: (cancelled events are not counted).  ``repro.claims`` reads the
        #: module-level aggregate via :func:`events_processed_total`.
        self.events_processed = 0

    @property
    def now(self):
        """Current simulated time in seconds."""
        return self._now

    def schedule(self, delay, callback, *args):
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now.

        Fire-and-forget: returns ``None``.  Use
        :meth:`schedule_cancellable` when the event may need cancelling.
        Negative delays are a programming error and raise ``ValueError``.
        """
        when = self._now + delay
        if delay < 0:
            raise ValueError(f"cannot schedule in the past (delay={delay})")
        seq = self._counter
        self._counter = seq + 1
        _heappush(self._heap, (when, seq, None, callback, args))

    def schedule_at(self, when, callback, *args):
        """Schedule ``callback(*args)`` at absolute time ``when``."""
        if when < self._now:
            raise ValueError(
                f"cannot schedule at {when}; current time is {self._now}"
            )
        seq = self._counter
        self._counter = seq + 1
        _heappush(self._heap, (when, seq, None, callback, args))

    def reserve(self, n):
        """Take ``n`` consecutive tie-break numbers; return the first.

        The caller pushes ``(when, first + i, None, callback, args)``
        onto ``_heap`` itself, each entry no later than the pop of any
        key above it: when a source pushes its next event from the
        callback of the previous one, a time-sorted schedule keeps
        that promise.
        """
        first = self._counter
        self._counter = first + n
        return first

    def schedule_cancellable(self, delay, callback, *args):
        """Like :meth:`schedule`, but returns a cancellable handle."""
        if delay < 0:
            raise ValueError(f"cannot schedule in the past (delay={delay})")
        return self.schedule_at_cancellable(self._now + delay, callback, *args)

    def schedule_at_cancellable(self, when, callback, *args):
        """Like :meth:`schedule_at`, but returns a cancellable handle."""
        if when < self._now:
            raise ValueError(
                f"cannot schedule at {when}; current time is {self._now}"
            )
        handle = EventHandle(self, when)
        seq = self._counter
        self._counter = seq + 1
        _heappush(self._heap, (when, seq, handle, callback, args))
        return handle

    def run(self, until=None):
        """Run events until the heap is empty or the clock passes ``until``.

        When ``until`` is given, the clock is left exactly at ``until``
        even if the last event fired earlier, so repeated ``run`` calls
        compose predictably.
        """
        self._running = True
        heap = self._heap
        pop = heapq.heappop
        limit = _INF if until is None else until
        executed = 0
        while heap and self._running:
            # Pop first: only the one entry past ``limit`` goes back.
            entry = pop(heap)
            when = entry[0]
            if when > limit:
                _heappush(heap, entry)
                break
            handle = entry[2]
            if handle is not None:
                if handle.cancelled:
                    self._n_cancelled -= 1
                    continue
                if handle.due > when:
                    # Postponed: not an event yet, so not counted.
                    seq = self._counter
                    self._counter = seq + 1
                    _heappush(heap, (handle.due, seq, handle, entry[3], entry[4]))
                    continue
            self._now = when
            entry[3](*entry[4])
            executed += 1
        if until is not None and self._now < until:
            self._now = until
        self._running = False
        self.events_processed += executed
        _STATS["events"] += executed
        # Once per run() call, not per event -- the loop above stays
        # instrumentation-free.
        if _obs.ENABLED:
            _obs.SINK.inc("netsim.engine.events", executed)
            _obs.SINK.inc("netsim.engine.runs")

    def stop(self):
        """Stop the event loop after the currently running callback."""
        self._running = False

    def pending(self):
        """Number of *live* events still queued.

        Cancelled events stay on the heap until popped, but a live
        counter subtracts them, so this reports real pending work.
        """
        return len(self._heap) - self._n_cancelled


#: Process-wide event counter; ``repro.claims`` reads it to count the
#: events of simulators that live and die inside a workload.
_STATS = {"events": 0}


def events_processed_total():
    """Total events executed by every simulator in this process."""
    return _STATS["events"]
