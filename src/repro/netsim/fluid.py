"""Hybrid fluid/mean-rate background model (``fidelity="hybrid"``).

Full-DES experiments spend the overwhelming majority of their event
budget on *background* packets, while only the background's aggregate
rate trajectory matters to the detection and localization verdicts: the
loss-trend signal Algorithm 1 correlates is driven by seconds-scale
fluctuations of the background rate, not by individual cross-traffic
packets.  This module replaces the per-packet background generators
with piecewise-constant *fluid* rate processes sampled from the same
seeded AR(1) + Pareto draw machinery, so rate trajectories stay
deterministic per seed while the event count collapses to a handful of
rate-change ticks per second.

Only foreground replay packets (and their ACKs) remain exact DES
events.  Background load shows up as a **virtual load term** inside the
queueing disciplines.  Each fluid queue is a subclass of its packet
mechanism that overrides only the load integration (``_advance``) and
the ``enqueue``/``dequeue`` decisions it feeds; constructor checks,
statistics, trigger and peak-bucket rules, and device sizing are
inherited.  :class:`FluidLoad` holds the virtual-load bookkeeping
(per-source rates, the virtual backlog, the conservation snapshot) that
every twin shares:

- :class:`FluidDropTailQueue` -- a drop-tail FIFO whose serialization
  capacity is shared with a fluid background aggregate.  Virtual
  backlog ``V`` evolves in closed form between foreground events; a
  foreground packet is dropped when real + virtual occupancy exceeds
  the capacity, and the head-of-line packet waits until the virtual
  bytes *ahead of it* (FIFO order, tracked by per-packet arrival marks)
  have been served.
- :class:`FluidTokenBucketFilter` -- a token bucket whose tokens are
  continuously depleted by the marked (dscp=1) fluid share.  Token
  depletion, virtual queue occupancy and the head-of-line wake time are
  computed from the fluid rate between foreground events instead of
  from simulated background packets.  The two-rate and conditional
  twins extend it with the rule mixins of :mod:`repro.netsim.shapers`.
- :class:`FluidDualClassQdisc` / :class:`FluidPerFlowQdisc` -- the
  classful devices of Appendix C.1 and Section 7, whose ``DEVICE`` and
  ``FIFO`` hooks swap in the fluid parts.  Each twin is registered as a
  class under its packet mechanism's name, and the registry builds it
  with that mechanism's sizing rule.

With no fluid source pushing a rate, every twin makes the same
decisions as its packet device (``tests/netsim/test_fluid_twins.py``).

Fluid state advances lazily: every foreground interaction and every
source rate-change tick calls ``_advance(now)``, which integrates the
piecewise-constant arrival and service processes in closed form.  The
integration applies each window's arrivals and service as bulk
quantities, so ordering error within a window is bounded by the window
length -- at most the finest modulation period (0.2 s by default).

Approximations (validated by the verdict-invariance gate, the
``fidelity`` claim of ``repro.claims``):

- the per-packet Bernoulli dscp marking becomes a deterministic
  mean-rate split of the aggregate;
- multi-hop propagation clips a source's rate at each upstream link's
  bandwidth instead of modelling per-hop queueing of background by
  background;
- background TCP flows do not back off under loss -- their offered
  fluid rate is app-paced (long-lived) or a slow-start-aware pulse
  (short flows), and the excess is absorbed as virtual drops, exactly
  like the UDP aggregate.

Byte conservation is exact by construction:
``bytes_offered == bytes_served + bytes_dropped + virtual_backlog``
for every fluid queue, and ``tests/netsim/test_fluid.py`` plus the
``netsim.fluid.*`` observability counters double-book it.
"""

import math
from collections import deque

import numpy as np

from repro.netsim.background import (
    DEFAULT_MODULATION,
    PACKET_SIZE_MIX,
    _Ar1Component,
)
from repro.netsim.per_flow import PerFlowQdisc
from repro.netsim.qdisc import register
from repro.netsim.queues import DropTailQueue
from repro.netsim.shapers import PeakBucketRules, TriggerRules
from repro.netsim.token_bucket import DualClassQdisc, TokenBucketFilter
from repro.obs import metrics as _obs

#: Wire bytes per payload byte for background TCP (MSS 1448 + 52 header).
TCP_WIRE_OVERHEAD = (1448.0 + 52.0) / 1448.0

#: Peak effective rate of one short background TCP flow (bits/s): the
#: approximate fair share such a flow reaches on the paper's topologies
#: before it completes.
SHORT_FLOW_PEAK_BPS = 3e6

#: Pure-TCP segment payload used by the short-flow slow-start estimate.
_SHORT_FLOW_MSS = 1448.0

#: Tolerance (bytes) below which a virtual backlog counts as drained.
_EPS_BYTES = 1e-6

#: Guard added to computed wake times so float rounding cannot livelock
#: a link retry loop (same convention as TokenBucketFilter.dequeue).
_WAKE_GUARD = 1e-9


#: Per-instance state of the virtual background load.  Every fluid
#: queue declares these slots itself: :class:`FluidLoad` must keep an
#: empty ``__slots__`` to mix into a slotted packet class.
FLUID_SLOTS = (
    "_fluid_rates",
    "_fluid_rate_Bps",
    "_v",
    "_marks",
    "_bg_pos",
    "bg_bytes_offered",
    "bg_bytes_served",
    "bg_bytes_dropped",
    "fluid_deferrals",
)


class FluidLoad:
    """Virtual-load bookkeeping shared by every fluid queue.

    Mixed in ahead of a packet queue class, it adds the fluid state
    (:data:`FLUID_SLOTS`), the per-source rate update and the
    byte-conservation snapshot.  The concrete class integrates the
    load in its own ``_advance``.
    """

    __slots__ = ()

    #: Every poll integrates the load up to ``now``.
    stateful_empty_poll = True

    def __init__(self, *args):
        super().__init__(*args)
        self._fluid_rates = {}  # source -> bits/s entering this queue
        self._fluid_rate_Bps = 0.0  # aggregate, bytes/s
        self._v = 0.0  # virtual background backlog (bytes)
        self._marks = deque()  # admitted-bg position per queued packet
        self._bg_pos = 0.0  # cumulative admitted background bytes
        self.bg_bytes_offered = 0.0
        self.bg_bytes_served = 0.0
        self.bg_bytes_dropped = 0.0
        self.fluid_deferrals = 0

    def set_fluid_rate(self, now, source, bps):
        """Update one source's piecewise-constant rate into this queue."""
        self._advance(now)
        previous = self._fluid_rates.get(source, 0.0)
        if bps != previous:
            self._fluid_rates[source] = bps
            self._fluid_rate_Bps += (bps - previous) / 8.0
            if self._fluid_rate_Bps < 0.0:
                self._fluid_rate_Bps = 0.0

    @property
    def virtual_backlog_bytes(self):
        return self._v

    def fluid_stats(self):
        """Byte-conservation snapshot (offered == served + dropped + V)."""
        return {
            "bg_bytes_offered": self.bg_bytes_offered,
            "bg_bytes_served": self.bg_bytes_served,
            "bg_bytes_dropped": self.bg_bytes_dropped,
            "virtual_backlog_bytes": self._v,
            "fluid_deferrals": self.fluid_deferrals,
        }


class FluidDropTailQueue(FluidLoad, DropTailQueue):
    """A drop-tail FIFO sharing its serialization capacity with fluid.

    The queue belongs to a link serving ``service_bps``; the link's
    constructor wires that rate in through :meth:`set_service_rate`.
    Real (foreground) packets and the virtual background interleave in
    FIFO order: each real packet is stamped with the cumulative admitted
    background byte count at its arrival, and it may only be transmitted
    once the background bytes ahead of it have drained.
    """

    __slots__ = FLUID_SLOTS + (
        "service_bps",
        "_last_fluid",
        "_real_out",
        "_real_out_mark",
    )

    def __init__(self, capacity_bytes=200_000, service_bps=None):
        super().__init__(capacity_bytes)
        self.service_bps = service_bps
        self._last_fluid = 0.0
        self._real_out = 0.0  # cumulative real bytes dequeued
        self._real_out_mark = 0.0

    def set_service_rate(self, bps):
        """Called by the owning link: the serialization rate fluid shares."""
        self.service_bps = bps

    def set_source_rate(self, now, source, marked_bps, unmarked_bps, n_flows=1):
        """Update one source's rate; a neutral link folds both classes."""
        self.set_fluid_rate(now, source, marked_bps + unmarked_bps)

    def _advance(self, now):
        """Integrate the fluid between the last interaction and ``now``.

        Service capacity unused by real transmissions drains background
        in FIFO order: only the virtual bytes *ahead of the real head*
        (or the whole backlog when no real packet is queued) may be
        served.  Arrivals behind a queued real packet never starve it.

        :meth:`FluidTokenBucketFilter._advance` runs the same two
        branches against a token pool.  They stay inline in both because
        this is the hottest fluid call, ~2M windows per hybrid localize
        round.  A shared helper adds one Python call per window.  In
        isolation that made both kernels ~30% slower, which at their
        share of a round exceeds the 2% of ``netsim.run_s`` a
        behaviour-preserving refactor may cost.
        """
        dt = now - self._last_fluid
        if dt <= 0.0:
            return
        self._last_fluid = now
        arrivals = self._fluid_rate_Bps * dt
        if arrivals == 0.0 and self._v <= _EPS_BYTES:
            self._real_out_mark = self._real_out
            return
        real_out = self._real_out - self._real_out_mark
        self._real_out_mark = self._real_out
        service = (self.service_bps / 8.0) * dt - real_out
        if service < 0.0:
            service = 0.0
        self.bg_bytes_offered += arrivals
        if self._queue:
            # Bytes ahead of the real head are servable; new arrivals
            # queue behind every real packet already present.
            servable = self._marks[0] - (self._bg_pos - self._v)
            if servable > self._v:
                servable = self._v
            served = servable if servable < service else service
            if served > 0.0:
                self._v -= served
                self.bg_bytes_served += served
            headroom = self.capacity_bytes - self._bytes - self._v
            admitted = arrivals if arrivals < headroom else max(headroom, 0.0)
            self._v += admitted
            self._bg_pos += admitted
            dropped = arrivals - admitted
        else:
            served = self._v if self._v < service else service
            if served > 0.0:
                self._v -= served
                self.bg_bytes_served += served
                service -= served
            direct = arrivals if arrivals < service else service
            remaining = arrivals - direct
            headroom = self.capacity_bytes - self._v
            admitted = remaining if remaining < headroom else max(headroom, 0.0)
            self._v += admitted
            self._bg_pos += direct + admitted
            self.bg_bytes_served += direct
            dropped = remaining - admitted
        if dropped > 0.0:
            self.bg_bytes_dropped += dropped
            if _obs.ENABLED:
                _obs.SINK.inc("netsim.fluid.virtual_drop_bytes", dropped)

    def enqueue(self, packet, now):
        # _advance is a no-op at an unchanged clock; skip the call.
        if now != self._last_fluid:
            self._advance(now)
        if self._bytes + self._v + packet.size > self.capacity_bytes:
            self.drops += 1
            self.drops_bytes += packet.size
            if _obs.ENABLED:
                _obs.SINK.inc("netsim.queue.drops")
                _obs.SINK.observe(
                    "netsim.queue.occupancy_at_drop_bytes", self._bytes + self._v
                )
            return False
        packet.enqueued_at = now
        self._queue.append(packet)
        self._marks.append(self._bg_pos)
        self._bytes += packet.size
        self.enqueued += 1
        return True

    def dequeue(self, now):
        if now != self._last_fluid:
            self._advance(now)
        if not self._queue:
            return None, None
        ahead = self._marks[0] - (self._bg_pos - self._v)
        if ahead > _EPS_BYTES:
            # The head must wait for the background ahead of it; later
            # background arrivals land behind it, so the wake is exact.
            self.fluid_deferrals += 1
            if _obs.ENABLED:
                _obs.SINK.inc("netsim.fluid.deferrals")
            return None, now + ahead * 8.0 / self.service_bps + _WAKE_GUARD
        self._marks.popleft()
        packet = self._queue.popleft()
        self._bytes -= packet.size
        self.delay_sum += now - packet.enqueued_at
        self.delay_samples += 1
        self._real_out += packet.size
        return packet, None


class FluidDualClassQdisc(DualClassQdisc):
    """Classifier + fluid FIFO + fluid TBF + round-robin scheduler.

    The marked fluid share competes inside the token bucket; the
    unmarked share competes for the FIFO class's serialization.  The
    round-robin scheduler itself is unchanged -- both classes already
    speak the ``(packet | None, wake | None)`` dequeue protocol.
    """

    __slots__ = ()

    def set_service_rate(self, bps):
        self.fifo.set_service_rate(bps)

    def set_source_rate(self, now, source, marked_bps, unmarked_bps, n_flows=1):
        self.tbf.set_fluid_rate(now, source, marked_bps)
        self.fifo.set_source_rate(now, source, 0.0, unmarked_bps)

    def fluid_stats(self):
        return _merge_stats(self.tbf.fluid_stats(), self.fifo.fluid_stats())


class FluidTokenBucketFilter(FluidLoad, TokenBucketFilter):
    """A token bucket whose tokens are also depleted by a fluid share.

    Keeps :class:`~repro.netsim.token_bucket.TokenBucketFilter`'s
    constructor, statistics and ``netsim.tbf.*`` counters, but the
    marked background arrives as a rate process instead of packets:
    between foreground events, generated tokens first serve the virtual
    backlog in FIFO order, and foreground drop/wake decisions are
    computed from the combined real + virtual occupancy.
    """

    __slots__ = FLUID_SLOTS

    DEVICE = FluidDualClassQdisc
    FIFO = FluidDropTailQueue

    def tokens(self, now):
        """Tokens available at ``now`` after fluid depletion (bytes)."""
        self._advance(now)
        return self._tokens

    def _advance(self, now):
        dt = now - self._last_update
        if dt <= 0.0:
            return
        self._last_update = now
        generated = (self.rate_bps / 8.0) * dt
        arrivals = self._fluid_rate_Bps * dt
        if arrivals == 0.0 and self._v <= _EPS_BYTES:
            tokens = self._tokens + generated
            self._tokens = tokens if tokens < self.burst_bytes else float(
                self.burst_bytes
            )
            return
        # Token pool for this window: banked tokens plus everything
        # generated during it.  Backlogged background consumes tokens
        # the instant they appear, so the burst cap only applies to
        # whatever is left at the end of the window.  The integration
        # is FluidDropTailQueue._advance's, inline for the same reason.
        pool = self._tokens + generated
        queue = self._queue
        real_bytes = queue.backlog_bytes
        self.bg_bytes_offered += arrivals
        if queue._queue:
            servable = self._marks[0] - (self._bg_pos - self._v)
            if servable > self._v:
                servable = self._v
            served = servable if servable < pool else pool
            if served > 0.0:
                self._v -= served
                self.bg_bytes_served += served
                pool -= served
            headroom = queue.capacity_bytes - real_bytes - self._v
            admitted = arrivals if arrivals < headroom else max(headroom, 0.0)
            self._v += admitted
            self._bg_pos += admitted
            dropped = arrivals - admitted
        else:
            served = self._v if self._v < pool else pool
            if served > 0.0:
                self._v -= served
                self.bg_bytes_served += served
                pool -= served
            direct = arrivals if arrivals < pool else pool
            remaining = arrivals - direct
            headroom = queue.capacity_bytes - self._v
            admitted = remaining if remaining < headroom else max(headroom, 0.0)
            self._v += admitted
            self._bg_pos += direct + admitted
            self.bg_bytes_served += direct
            pool -= direct
            dropped = remaining - admitted
        if dropped > 0.0:
            self.bg_bytes_dropped += dropped
            if _obs.ENABLED:
                _obs.SINK.inc("netsim.fluid.virtual_drop_bytes", dropped)
        self._tokens = pool if pool < self.burst_bytes else float(self.burst_bytes)

    def enqueue(self, packet, now):
        self._advance(now)
        queue = self._queue
        if queue.backlog_bytes + self._v + packet.size > queue.capacity_bytes:
            # Count through the inner queue so the ``drops`` property
            # and the harvested ``netsim.tbf.drops_total`` stay one
            # accounting path, exactly as in the packet-mode TBF.
            queue.drops += 1
            queue.drops_bytes += packet.size
            if _obs.ENABLED:
                _obs.SINK.inc("netsim.queue.drops")
                _obs.SINK.observe(
                    "netsim.queue.occupancy_at_drop_bytes",
                    queue.backlog_bytes + self._v,
                )
                _obs.SINK.inc("netsim.tbf.drops")
            return False
        accepted = queue.enqueue(packet, now)
        if accepted:
            self._marks.append(self._bg_pos)
        return accepted

    def dequeue(self, now):
        self._advance(now)
        head = self._queue.peek()
        if head is None:
            return None, None
        size = head.size
        ahead = self._marks[0] - (self._bg_pos - self._v)
        if ahead < 0.0:
            ahead = 0.0
        tokens = self._tokens
        if ahead <= _EPS_BYTES and tokens + 1e-9 >= size:
            self._tokens = tokens - size if tokens > size else 0.0
            self._marks.popleft()
            return self._queue.dequeue(now)
        self.fluid_deferrals += 1
        if _obs.ENABLED:
            _obs.SINK.inc("netsim.tbf.deferrals")
            _obs.SINK.inc("netsim.fluid.deferrals")
            _obs.SINK.observe("netsim.tbf.token_debt_bytes", ahead + size - tokens)
            _obs.SINK.observe(
                "netsim.tbf.occupancy_at_deferral_bytes",
                self._queue.backlog_bytes + self._v,
            )
        # The head waits for the background ahead of it plus its own
        # tokens; later background arrivals queue behind it, so the
        # wake never recedes.
        need = ahead + size - tokens
        return None, now + need * 8.0 / self.rate_bps + _WAKE_GUARD


class FluidDualTokenBucketFilter(PeakBucketRules, FluidTokenBucketFilter):
    """Fluid twin of :class:`~repro.netsim.shapers.DualTokenBucketFilter`.

    A second (peak-rate) bucket gates both the foreground packets and
    the fluid background: the window's service pool exposed to the base
    integration is the *minimum* of the committed and peak pools, and
    both buckets are settled from the bytes actually served.
    """

    __slots__ = PeakBucketRules.PEAK_SLOTS

    def _advance(self, now):
        dt = now - self._last_update
        if dt <= 0.0:
            return
        pool_c = self._tokens + (self.rate_bps / 8.0) * dt
        pool_p = self._peak_tokens + (self.peak_rate_bps / 8.0) * dt
        served_before = self.bg_bytes_served
        # Expose min(committed, peak) to the base integration by
        # pre-debiting the committed bucket; the base then recomputes
        # its pool as exactly that minimum.
        if pool_p < pool_c:
            self._tokens -= pool_c - pool_p
        super()._advance(now)
        used = self.bg_bytes_served - served_before
        cap_c = float(self.burst_bytes)
        cap_p = float(self.peak_burst_bytes)
        left_c = pool_c - used
        left_p = pool_p - used
        self._tokens = left_c if left_c < cap_c else cap_c
        self._peak_tokens = left_p if left_p < cap_p else cap_p

    def dequeue(self, now):
        self._advance(now)
        head = self._queue.peek()
        if head is None:
            return None, None
        size = head.size
        ahead = self._marks[0] - (self._bg_pos - self._v)
        if ahead < 0.0:
            ahead = 0.0
        tokens = self._tokens
        peak = self._peak_tokens
        if ahead <= _EPS_BYTES and tokens + 1e-9 >= size and peak + 1e-9 >= size:
            self._tokens = tokens - size if tokens > size else 0.0
            self._peak_tokens = peak - size if peak > size else 0.0
            self._marks.popleft()
            return self._queue.dequeue(now)
        self.fluid_deferrals += 1
        self._count_peak_deferral(size, peak)
        if _obs.ENABLED:
            _obs.SINK.inc("netsim.tbf.deferrals")
            _obs.SINK.inc("netsim.fluid.deferrals")
            _obs.SINK.observe(
                "netsim.tbf.token_debt_bytes",
                max(ahead + size - tokens, size - peak, 0.0),
            )
            _obs.SINK.observe(
                "netsim.tbf.occupancy_at_deferral_bytes",
                self._queue.backlog_bytes + self._v,
            )
        need_c = ahead + size - tokens
        wait_c = need_c * 8.0 / self.rate_bps if need_c > 0.0 else 0.0
        need_p = ahead + size - peak
        wait_p = need_p * 8.0 / self.peak_rate_bps if need_p > 0.0 else 0.0
        return None, now + max(wait_c, wait_p) + _WAKE_GUARD


class FluidConditionalTokenBucket(TriggerRules, FluidTokenBucketFilter):
    """Fluid twin of :class:`~repro.netsim.shapers.ConditionalTokenBucket`.

    Pre-trigger, the class is unthrottled: fluid background drains
    completely each window (link serialization is the outer FIFO's job)
    and real packets pass straight through; marked bytes -- fluid and
    packet alike -- count toward the byte trigger.  On tripping, the
    bucket starts full and the base fluid TBF takes over.
    """

    __slots__ = TriggerRules.TRIGGER_SLOTS

    def _advance(self, now):
        self._maybe_trip_time(now)
        if self.tripped:
            super()._advance(now)
            return
        dt = now - self._last_update
        if dt <= 0.0:
            return
        self._last_update = now
        arrivals = self._fluid_rate_Bps * dt
        if arrivals > 0.0 or self._v > _EPS_BYTES:
            # Unthrottled: everything offered is served immediately.
            self.bg_bytes_offered += arrivals
            self.bg_bytes_served += self._v + arrivals
            self._bg_pos += arrivals
            self._v = 0.0
            self._count_bytes(arrivals, now)

    def enqueue(self, packet, now):
        self._advance(now)
        if not self.tripped:
            self._count_bytes(packet.size, now)
        return super().enqueue(packet, now)

    def dequeue(self, now):
        self._advance(now)
        if self.tripped:
            return super().dequeue(now)
        if self._queue.peek() is None:
            return None, None
        self._marks.popleft()
        return self._queue.dequeue(now)


class FluidPerFlowQdisc(PerFlowQdisc):
    """Per-flow limiter with a virtual background load term (Section 7).

    Marked background traverses its *own* per-flow buckets, never the
    foreground's, so its only effect on the foreground is link
    serialization of whatever the per-flow policers admit.  The
    admitted marked rate is ``min(rate, n_flows x per-flow rate)``,
    where ``n_flows`` counts the source's *marked* flows (the UDP
    aggregate is a single flow id -- one bucket); the policed excess is
    booked as virtual drops.  Foreground packets still get real per-flow
    token buckets, exactly as in packet mode.
    """

    __slots__ = (
        "_policed_rates",
        "_policed_rate_Bps",
        "_last_policed",
        "bg_bytes_policed",
    )

    FIFO = FluidDropTailQueue

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._policed_rates = {}
        self._policed_rate_Bps = 0.0
        self._last_policed = 0.0
        self.bg_bytes_policed = 0.0

    def set_service_rate(self, bps):
        self.fifo.set_service_rate(bps)

    def set_source_rate(self, now, source, marked_bps, unmarked_bps, n_flows=1):
        """Marked fluid is per-flow policed before it loads the link."""
        self._settle_policed(now)
        admitted = min(marked_bps, max(n_flows, 1) * self.rate_bps)
        policed = marked_bps - admitted
        previous = self._policed_rates.get(source, 0.0)
        if policed != previous:
            self._policed_rates[source] = policed
            self._policed_rate_Bps += (policed - previous) / 8.0
            if self._policed_rate_Bps < 0.0:
                self._policed_rate_Bps = 0.0
        self.fifo.set_source_rate(now, source, admitted, unmarked_bps)

    def _settle_policed(self, now):
        dt = now - self._last_policed
        if dt > 0.0:
            settled = self._policed_rate_Bps * dt
            self.bg_bytes_policed += settled
            self._last_policed = now
            if settled > 0.0 and _obs.ENABLED:
                # Policer drops are virtual drops too; keep the live
                # counter in lockstep with fluid_stats() bookkeeping.
                _obs.SINK.inc("netsim.fluid.virtual_drop_bytes", settled)

    def fluid_stats(self):
        self._settle_policed(self.fifo._last_fluid)
        stats = dict(self.fifo.fluid_stats())
        stats["bg_bytes_offered"] += self.bg_bytes_policed
        stats["bg_bytes_dropped"] += self.bg_bytes_policed
        return stats


def _merge_stats(*parts):
    merged = {
        "bg_bytes_offered": 0.0,
        "bg_bytes_served": 0.0,
        "bg_bytes_dropped": 0.0,
        "virtual_backlog_bytes": 0.0,
        "fluid_deferrals": 0,
    }
    for part in parts:
        for key in merged:
            merged[key] += part[key]
    return merged


# Attach the fluid twins to the mechanisms registered elsewhere: each
# is built with its packet mechanism's sizing rule.  The AQMs
# (red/ecn/codel/pie) deliberately have none: their drop processes
# depend on instantaneous queue state in a way the closed-form fluid
# integration cannot reproduce, so make_qdisc raises QdiscFidelityError
# for them under fidelity="hybrid".
register("droptail", fluid=FluidDropTailQueue)
register("tbf", fluid=FluidTokenBucketFilter)
register("perflow", fluid=FluidPerFlowQdisc)
register("dual_tbf", fluid=FluidDualTokenBucketFilter)
register("conditional", fluid=FluidConditionalTokenBucket)


# -- fluid background sources ---------------------------------------


class _FluidSource:
    """Shared hop plumbing for fluid background generators.

    A source pushes its per-class rates to every qdisc along its link
    sequence; the rate entering hop ``k+1`` is clipped at hop ``k``'s
    bandwidth (a link cannot emit faster than it serializes).  Pushes
    happen only at rate-change ticks, so the event cost of a fluid
    source is a handful of events per second regardless of its rate.
    """

    def __init__(self, sim, links, stop_at, flow_id):
        self.sim = sim
        self.stop_at = stop_at
        self.flow_id = flow_id
        self._hops = [(link.qdisc, link.bandwidth_bps) for link in links]
        self.bytes_offered = 0.0
        self._offer_rate_Bps = 0.0
        self._offer_mark = sim._now

    def _push(self, marked_bps, unmarked_bps, n_flows=1):
        now = self.sim._now
        self.bytes_offered += self._offer_rate_Bps * (now - self._offer_mark)
        self._offer_mark = now
        self._offer_rate_Bps = (marked_bps + unmarked_bps) / 8.0
        rate_m, rate_u = marked_bps, unmarked_bps
        for qdisc, bandwidth in self._hops:
            qdisc.set_source_rate(now, self, rate_m, rate_u, n_flows)
            total = rate_m + rate_u
            if total > bandwidth:
                scale = bandwidth / total
                rate_m *= scale
                rate_u *= scale
        if _obs.ENABLED:
            _obs.SINK.inc("netsim.fluid.rate_segments")

    def _stopped(self):
        return self.stop_at is not None and self.sim._now >= self.stop_at


class FluidPoissonBackground(_FluidSource):
    """Fluid twin of :class:`~repro.netsim.background.ModulatedPoissonBackground`.

    The log-rate follows the *same* multi-timescale AR(1) process with
    the same per-tick ``rng.normal`` draws, so the rate trajectory is
    deterministic per seed; only the per-packet draws (exponential
    gaps, size mixture, dscp Bernoulli) disappear.  The dscp split
    becomes the deterministic mean-rate split.

    A perfectly smooth fluid would *understate* loss variability: the
    Poisson packet process carries shot noise -- the packet count in a
    window of ``k`` expected packets has relative variance ``1/k`` --
    and that sub-second burstiness is what spreads the bottleneck's
    drops across measurement intervals instead of concentrating them
    into deterministic saturation phases.  The fluid restores it with a
    seeded *dither*: every ``dither_period`` the pushed rate is the
    AR(1) rate times a ``Gamma(k, 1/k)`` factor (mean 1, variance
    ``1/k``), matching the Poisson window-count statistics.
    """

    def __init__(
        self,
        sim,
        rng,
        links,
        mean_rate_bps,
        dscp1_fraction=0.5,
        modulation=None,
        start_at=0.0,
        stop_at=None,
        flow_id="bg-udp",
        dither_period=0.05,
    ):
        if mean_rate_bps <= 0:
            raise ValueError("background rate must be positive")
        if not 0.0 <= dscp1_fraction <= 1.0:
            raise ValueError("dscp1_fraction must be in [0, 1]")
        super().__init__(sim, links, stop_at, flow_id)
        self.rng = rng
        self.mean_rate_bps = mean_rate_bps
        self.dscp1_fraction = dscp1_fraction
        self.dither_period = dither_period
        sizes, probs = zip(*PACKET_SIZE_MIX)
        self._mean_size = float(
            sum(s * p for s, p in zip(sizes, probs)) / sum(probs)
        )
        self._dither = 1.0
        if modulation is None:
            modulation = DEFAULT_MODULATION
        self._components = [
            _Ar1Component(period, sigma, rho, rng)
            for period, sigma, rho in modulation
        ]
        self._total_variance = sum(c.sigma**2 for c in self._components)
        for component in self._components:
            sim.schedule_at(start_at, self._remodulate, component)
        if dither_period and dither_period > 0.0:
            sim.schedule_at(start_at, self._dither_tick)
        else:
            sim.schedule_at(start_at, self._emit)
        if stop_at is not None:
            sim.schedule_at(stop_at, self._halt)

    def current_rate_bps(self):
        log_x = sum(c.state for c in self._components)
        return self.mean_rate_bps * float(
            np.exp(log_x - self._total_variance / 2.0)
        )

    def _emit(self):
        rate = self.current_rate_bps() * self._dither
        marked = rate * self.dscp1_fraction
        self._push(marked, rate - marked)

    def _remodulate(self, component):
        if self._stopped():
            return
        component.step(self.rng)
        self._emit()
        self.sim.schedule(component.period, self._remodulate, component)

    def _dither_tick(self):
        if self._stopped():
            return
        # Expected packets this window under the current AR(1) rate.
        k = (
            self.current_rate_bps()
            * self.dither_period
            / (8.0 * self._mean_size)
        )
        if k > 1e-9:
            self._dither = float(self.rng.gamma(k)) / k
        else:
            self._dither = 1.0
        self._emit()
        self.sim.schedule(self.dither_period, self._dither_tick)

    def _halt(self):
        self._dither = 0.0
        self._push(0.0, 0.0)


class FluidTcpBackground(_FluidSource):
    """Fluid twin of :class:`~repro.netsim.background.TcpBackgroundPool`.

    Long-lived flows are application-paced, so their fluid rate is the
    paced rate (plus wire overhead).  Short flows keep the Poisson
    arrival and Pareto size draws and become rate *pulses*: a flow of
    ``size`` bytes at RTT ``rtt`` transmits for a slow-start-aware
    duration and its effective rate is ``size / duration``, preserving
    the heavy-tailed burst structure that makes the background trend.
    Per-flow dscp marking keeps the same Bernoulli draws; a flow's whole
    rate goes to the class its draw chose.
    """

    def __init__(
        self,
        sim,
        rng,
        links,
        n_longlived=2,
        longlived_rate_bps=1.5e6,
        short_flow_rate=1.0,
        short_flow_min_bytes=30_000,
        dscp1_fraction=0.5,
        rtt_range=(0.02, 0.08),
        start_at=0.0,
        stop_at=None,
        flow_prefix="bg-tcp",
    ):
        super().__init__(sim, links, stop_at, flow_prefix)
        self.rng = rng
        self.short_flow_rate = short_flow_rate
        self.short_flow_min_bytes = short_flow_min_bytes
        self.dscp1_fraction = dscp1_fraction
        self.rtt_range = rtt_range
        self._marked_bps = 0.0
        self._unmarked_bps = 0.0
        # Marked flows only: per-flow policing admits n_flows x rate of
        # the marked share, and unmarked flows never reach a bucket.
        self._marked_flows = 0
        self.flows_spawned = 0
        for _ in range(n_longlived):
            # Same draw order as TcpBackgroundPool._spawn: dscp, then RTT.
            dscp = 1 if rng.random() < dscp1_fraction else 0
            rng.uniform(*rtt_range)
            rate = longlived_rate_bps * TCP_WIRE_OVERHEAD
            if dscp == 1:
                self._marked_bps += rate
                self._marked_flows += 1
            else:
                self._unmarked_bps += rate
            self.flows_spawned += 1
        sim.schedule_at(start_at, self._emit)
        if short_flow_rate > 0:
            sim.schedule_at(
                start_at + rng.exponential(1.0 / short_flow_rate),
                self._spawn_short,
            )
        if stop_at is not None:
            sim.schedule_at(stop_at, self._halt)

    def _emit(self):
        self._push(self._marked_bps, self._unmarked_bps, self._marked_flows)

    def _spawn_short(self):
        if self._stopped():
            return
        rng = self.rng
        # Pareto(shape=1.2) sizes, then dscp, then RTT -- the same draw
        # sequence as TcpBackgroundPool._spawn_short/_spawn.
        size = int(self.short_flow_min_bytes * (1.0 + rng.pareto(1.2)))
        dscp = 1 if rng.random() < self.dscp1_fraction else 0
        rtt = float(rng.uniform(*self.rtt_range))
        rate, duration = short_flow_pulse(size, rtt)
        self.flows_spawned += 1
        if dscp == 1:
            self._marked_bps += rate
            self._marked_flows += 1
        else:
            self._unmarked_bps += rate
        self._emit()
        self.sim.schedule(duration, self._end_pulse, rate, dscp)
        self.sim.schedule(
            rng.exponential(1.0 / self.short_flow_rate), self._spawn_short
        )

    def _end_pulse(self, rate, dscp):
        if dscp == 1:
            self._marked_bps = max(0.0, self._marked_bps - rate)
            self._marked_flows -= 1
        else:
            self._unmarked_bps = max(0.0, self._unmarked_bps - rate)
        self._emit()

    def _halt(self):
        self._marked_bps = 0.0
        self._unmarked_bps = 0.0
        self._marked_flows = 0
        self._emit()


def short_flow_pulse(size_bytes, rtt_s, peak_bps=SHORT_FLOW_PEAK_BPS):
    """Effective (rate_bps, duration_s) of one short TCP flow.

    Completion time is the larger of the slow-start round count
    (``log2`` of the segment count, one round per RTT) and the
    bandwidth-limited transfer at the flow's peak fair-share rate; the
    effective rate spreads the flow's wire bytes over that duration.
    Deterministic -- no RNG draws beyond the caller's size/rtt.
    """
    wire_bytes = size_bytes * TCP_WIRE_OVERHEAD
    segments = max(size_bytes / _SHORT_FLOW_MSS, 1.0)
    slowstart_s = (math.log2(segments + 1.0) + 1.0) * rtt_s
    capacity_s = wire_bytes * 8.0 / peak_bps
    duration = max(slowstart_s, capacity_s, 1e-3)
    return wire_bytes * 8.0 / duration, duration


def harvest_fluid(sink, topology):
    """Record the ``netsim.fluid.*`` aggregates of a finished run.

    Double-entry bookkeeping mirror of the live counters: the harvested
    ``netsim.fluid.bg_bytes_dropped_total`` must equal the live
    ``netsim.fluid.virtual_drop_bytes`` counter, and conservation
    (offered == served + dropped + backlog) must hold exactly.
    """
    totals = _merge_stats()
    for link in [topology.link_c, *topology.noncommon_links]:
        stats = getattr(link.qdisc, "fluid_stats", None)
        if stats is None:
            continue
        part = stats()
        for key in totals:
            totals[key] += part[key]
    sink.inc("netsim.fluid.bg_bytes_offered_total", totals["bg_bytes_offered"])
    sink.inc("netsim.fluid.bg_bytes_served_total", totals["bg_bytes_served"])
    sink.inc("netsim.fluid.bg_bytes_dropped_total", totals["bg_bytes_dropped"])
    sink.inc("netsim.fluid.deferrals_total", totals["fluid_deferrals"])
    sink.observe(
        "netsim.fluid.final_virtual_backlog_bytes",
        totals["virtual_backlog_bytes"],
    )
