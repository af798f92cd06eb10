"""The shaper zoo: AQM, two-rate, conditional, and ECN-marking devices.

The paper's differentiation device is a single token-bucket policer;
real bottlenecks deploy a wider range of mechanisms, and distinguishing
them is what :mod:`repro.stats.fingerprint` is for.  Every class here
is the *throttled-class* queue slotted into the Appendix-C.1 device
(classifier + FIFO + shaper + round-robin scheduler), registered with
one sizing rule; :func:`repro.netsim.qdisc.build_device` builds the
complete device from the two.

Mechanisms (all packet-exact):

- :class:`RedTokenBucket` -- Random Early Detection (Floyd/Jacobson):
  EWMA average queue, probabilistic early drop between ``min_th`` and
  ``max_th``, count-scaled so drops spread out.
- :class:`EcnTokenBucket` -- RED that marks ECN-capable packets instead
  of dropping them -- senders then back off once per RTT without loss.
- :class:`CoDelTokenBucket` -- Controlled Delay (RFC 8289, simplified):
  head drops at dequeue when sojourn time stays above ``target`` for an
  ``interval``, then at ``interval/sqrt(count)`` spacing.
- :class:`PieTokenBucket` -- Proportional Integral controller Enhanced
  (RFC 8033, simplified: no burst allowance): drop probability updated
  every ``t_update`` from the queue-delay error and trend.
- :class:`DualTokenBucketFilter` -- two-rate policer (trTCM-style, RFC
  2698 shape): a large committed-rate bucket (the "boost" allowance)
  plus a small peak-rate bucket; throughput steps from PIR down to CIR
  once the boost is consumed.
- :class:`ConditionalTokenBucket` -- delayed throttling: pure FIFO
  until ``trigger_bytes`` of class traffic (or ``trigger_after_s``
  seconds) have passed, then an ordinary TBF.  Generalizes ISP5's
  delayed-trigger classifier to the qdisc itself.

The two-rate and conditional rules (constructor checks, statistics,
the trigger and its 4 MB default) live in the :class:`PeakBucketRules`
and :class:`TriggerRules` mixins, which the fluid twins in
:mod:`repro.netsim.fluid` share, so each mechanism's parameters and
defaults are written once, in its class.

Three sizing rules cover the zoo.  The paper's
:func:`~repro.netsim.qdisc.standard_sizing` sizes ``tbf`` and
``conditional``.  :func:`aqm_sizing` configures AQM queue depth in
*time* (``buffer_s`` at the shaping rate), as deployed AQMs are; the
Table-2 ``queue_factor`` scales it relative to its 0.5 default so
queue-depth sweeps still bite.  :func:`two_rate_sizing` derives the
peak bucket (``peak_factor``) and the boost allowance
(``boost_bytes``).

Randomized mechanisms (RED/PIE/ECN draws) use a private
``random.Random(seed)`` so runs are exactly reproducible; the registry
counts a class that takes ``seed`` as ``seeded``, and the topology
builder derives per-device seeds from the scenario seed.
"""

import math
import random
from repro.netsim.qdisc import register, standard_sizing
from repro.netsim.token_bucket import TokenBucketFilter
from repro.obs import metrics as _obs

MTU_BYTES = 1500


def aqm_sizing(rate_bps, rtt_s, queue_factor, buffer_s=0.25):
    """The paper's burst, and a time-based AQM queue depth: ``buffer_s``
    at the shaping rate, scaled by the Table-2 queue factor relative to
    its 0.5 default."""
    burst, _ = standard_sizing(rate_bps, rtt_s, queue_factor)
    depth = rate_bps * buffer_s / 8.0 * (queue_factor / 0.5)
    return burst, max(int(depth), 6 * MTU_BYTES)


def two_rate_sizing(rate_bps, rtt_s, queue_factor, peak_factor=2.0, boost_bytes=1_500_000):
    """The committed bucket holds the ``boost_bytes`` allowance (at least
    the paper's burst); the peak bucket runs at ``peak_factor`` times the
    rate with a rate x RTT burst."""
    burst, limit = standard_sizing(rate_bps, rtt_s, queue_factor)
    peak_rate = peak_factor * rate_bps
    peak_burst = max(int(peak_rate * rtt_s / 8.0), 3000)
    return max(int(boost_bytes), burst), limit, peak_rate, peak_burst


class RedTokenBucket(TokenBucketFilter):
    """TBF whose queue admission runs Random Early Detection.

    ``min_th``/``max_th`` are fractions of the queue limit; between
    them the early-drop (or ECN-mark) probability ramps linearly to
    ``max_p``, scaled by the count of packets since the last drop so
    drops spread out instead of clustering.  At or above ``max_th``
    every arrival is dropped/marked.  The EWMA average decays at the
    service rate while the queue idles.
    """

    #: True when an early verdict marks the packet instead of dropping it.
    ecn_capable = False

    __slots__ = (
        "min_th_bytes",
        "max_th_bytes",
        "max_p",
        "w_q",
        "_avg",
        "_count",
        "_last_arrival",
        "_rng",
        "early_drops",
        "early_drop_bytes",
        "ecn_marks",
        "ecn_mark_bytes",
    )

    def __init__(
        self,
        rate_bps,
        burst_bytes,
        limit_bytes,
        min_th=0.25,
        max_th=0.75,
        max_p=0.1,
        w_q=0.05,
        seed=0,
    ):
        super().__init__(rate_bps, burst_bytes, limit_bytes)
        if not 0.0 < min_th < max_th <= 1.0:
            raise ValueError("RED thresholds need 0 < min_th < max_th <= 1")
        if not 0.0 < max_p <= 1.0:
            raise ValueError("RED max_p must be in (0, 1]")
        limit = self._queue.capacity_bytes
        self.min_th_bytes = min_th * limit
        self.max_th_bytes = max_th * limit
        self.max_p = max_p
        self.w_q = w_q
        self._avg = 0.0
        self._count = -1
        self._last_arrival = 0.0
        self._rng = random.Random(seed)
        self.early_drops = 0
        self.early_drop_bytes = 0
        self.ecn_marks = 0
        self.ecn_mark_bytes = 0

    @property
    def drops(self):
        return self._queue.drops + self.early_drops

    @property
    def drops_bytes(self):
        return self._queue.drops_bytes + self.early_drop_bytes

    @property
    def avg_queue_bytes(self):
        """The EWMA average RED compares against its thresholds."""
        return self._avg

    def shaper_stats(self):
        return {
            "red.early_drops_total": self.early_drops,
            "red.early_drop_bytes_total": self.early_drop_bytes,
            "red.ecn_marks_total": self.ecn_marks,
        }

    def _red_verdict(self):
        """True when the arrival should be early-dropped (or marked)."""
        avg = self._avg
        if avg < self.min_th_bytes:
            self._count = -1
            return False
        if avg >= self.max_th_bytes:
            self._count = 0
            return True
        self._count += 1
        span = self.max_th_bytes - self.min_th_bytes
        p_b = self.max_p * (avg - self.min_th_bytes) / span
        denom = 1.0 - self._count * p_b
        p_a = 1.0 if denom <= 0.0 else min(p_b / denom, 1.0)
        if self._rng.random() < p_a:
            self._count = 0
            return True
        return False

    def enqueue(self, packet, now):
        q = self._queue.backlog_bytes
        if q == 0 and now > self._last_arrival:
            # Idle decay: while empty the average drains at the service
            # rate, measured in MTU-sized transmission slots.
            m = (now - self._last_arrival) * self.rate_bps / (8.0 * MTU_BYTES)
            self._avg *= (1.0 - self.w_q) ** min(m, 200.0)
        self._last_arrival = now
        self._avg += self.w_q * (q - self._avg)
        if self._red_verdict():
            if self.ecn_capable:
                packet.ecn = 1
                self.ecn_marks += 1
                self.ecn_mark_bytes += packet.size
                if _obs.ENABLED:
                    _obs.SINK.inc("netsim.red.ecn_marks")
            else:
                self.early_drops += 1
                self.early_drop_bytes += packet.size
                if _obs.ENABLED:
                    _obs.SINK.inc("netsim.red.early_drops")
                    _obs.SINK.observe("netsim.red.avg_at_drop_bytes", self._avg)
                return False
        return super().enqueue(packet, now)


class EcnTokenBucket(RedTokenBucket):
    """RED whose early verdicts ECN-mark the packet instead of dropping it."""

    __slots__ = ()

    ecn_capable = True


class CoDelTokenBucket(TokenBucketFilter):
    """TBF whose queue runs the CoDel head-drop state machine.

    Sojourn time is measured at dequeue; once it exceeds ``target`` for
    a full ``interval`` the qdisc enters the dropping state and sheds
    heads at ``interval / sqrt(count)`` spacing until the sojourn falls
    back under target (or fewer than two MTUs remain queued).  Dropped
    heads consume no tokens.
    """

    __slots__ = (
        "target_s",
        "interval_s",
        "_first_above",
        "_dropping",
        "_drop_next",
        "_drop_count",
        "codel_drops",
        "codel_drop_bytes",
    )

    #: An empty poll ends the above-target interval and the dropping state.
    stateful_empty_poll = True

    def __init__(self, rate_bps, burst_bytes, limit_bytes, target=0.005, interval=0.1):
        super().__init__(rate_bps, burst_bytes, limit_bytes)
        if target <= 0 or interval <= 0:
            raise ValueError("CoDel target and interval must be positive")
        self.target_s = target
        self.interval_s = interval
        self._first_above = 0.0
        self._dropping = False
        self._drop_next = 0.0
        self._drop_count = 0
        self.codel_drops = 0
        self.codel_drop_bytes = 0

    @property
    def drops(self):
        return self._queue.drops + self.codel_drops

    @property
    def drops_bytes(self):
        return self._queue.drops_bytes + self.codel_drop_bytes

    def shaper_stats(self):
        return {
            "codel.drops_total": self.codel_drops,
            "codel.drop_bytes_total": self.codel_drop_bytes,
        }

    def _codel_drop(self, head, now):
        sojourn = now - head.enqueued_at
        if sojourn < self.target_s or self._queue.backlog_bytes <= 2 * MTU_BYTES:
            self._first_above = 0.0
            self._dropping = False
            return False
        if self._first_above == 0.0:
            self._first_above = now + self.interval_s
            return False
        if self._dropping:
            if now < self._drop_next:
                return False
            self._drop_count += 1
            self._drop_next += self.interval_s / math.sqrt(self._drop_count)
            return True
        if now >= self._first_above:
            self._dropping = True
            self._drop_count = 1
            self._drop_next = now + self.interval_s
            return True
        return False

    def dequeue(self, now):
        queue = self._queue
        while True:
            head = queue.peek()
            if head is None:
                self._first_above = 0.0
                self._dropping = False
                return None, None
            if not self._codel_drop(head, now):
                break
            packet, _ = queue.dequeue(now)
            self.codel_drops += 1
            self.codel_drop_bytes += packet.size
            if _obs.ENABLED:
                _obs.SINK.inc("netsim.codel.drops")
                _obs.SINK.observe(
                    "netsim.codel.sojourn_at_drop_s", now - packet.enqueued_at
                )
        return super().dequeue(now)


class PieTokenBucket(TokenBucketFilter):
    """TBF whose queue admission runs the PIE controller.

    The drop probability is updated every ``t_update`` seconds from the
    queue-delay error (``alpha``) and trend (``beta``), with RFC 8033's
    small-probability step scaling, and decays while the queue idles.
    Arrivals are randomly dropped with that probability unless the
    backlog is below two MTUs.
    """

    __slots__ = (
        "target_s",
        "t_update_s",
        "alpha",
        "beta",
        "_p",
        "_qdelay_old",
        "_next_update",
        "_rng",
        "early_drops",
        "early_drop_bytes",
    )

    def __init__(
        self,
        rate_bps,
        burst_bytes,
        limit_bytes,
        target=0.02,
        t_update=0.03,
        alpha=0.125,
        beta=1.25,
        seed=0,
    ):
        super().__init__(rate_bps, burst_bytes, limit_bytes)
        if target <= 0 or t_update <= 0:
            raise ValueError("PIE target and t_update must be positive")
        self.target_s = target
        self.t_update_s = t_update
        self.alpha = alpha
        self.beta = beta
        self._p = 0.0
        self._qdelay_old = 0.0
        self._next_update = 0.0
        self._rng = random.Random(seed)
        self.early_drops = 0
        self.early_drop_bytes = 0

    @property
    def drops(self):
        return self._queue.drops + self.early_drops

    @property
    def drops_bytes(self):
        return self._queue.drops_bytes + self.early_drop_bytes

    @property
    def drop_prob(self):
        """PIE's current early-drop probability."""
        return self._p

    def shaper_stats(self):
        return {
            "pie.early_drops_total": self.early_drops,
            "pie.early_drop_bytes_total": self.early_drop_bytes,
        }

    def _update_p(self, now):
        qdelay = self._queue.backlog_bytes * 8.0 / self.rate_bps
        delta = self.alpha * (qdelay - self.target_s)
        delta += self.beta * (qdelay - self._qdelay_old)
        p = self._p
        if p < 0.000001:
            delta /= 2048.0
        elif p < 0.00001:
            delta /= 512.0
        elif p < 0.0001:
            delta /= 128.0
        elif p < 0.001:
            delta /= 32.0
        elif p < 0.01:
            delta /= 8.0
        elif p < 0.1:
            delta /= 2.0
        p += delta
        if qdelay == 0.0 and self._qdelay_old == 0.0:
            p *= 0.98
        self._p = min(max(p, 0.0), 1.0)
        self._qdelay_old = qdelay
        self._next_update = now + self.t_update_s

    def enqueue(self, packet, now):
        if now >= self._next_update:
            self._update_p(now)
        if self._p > 0.0 and self._queue.backlog_bytes > 2 * MTU_BYTES:
            if self._rng.random() < self._p:
                self.early_drops += 1
                self.early_drop_bytes += packet.size
                if _obs.ENABLED:
                    _obs.SINK.inc("netsim.pie.early_drops")
                    _obs.SINK.observe("netsim.pie.drop_prob_at_drop", self._p)
                return False
        return super().enqueue(packet, now)


class PeakBucketRules:
    """The peak-rate bucket's rules, shared by both fidelities' two-rate shapers.

    A mixin ahead of a token-bucket base; concrete classes declare
    :attr:`PEAK_SLOTS` (two slotted bases cannot be combined).
    """

    __slots__ = ()

    PEAK_SLOTS = ("peak_rate_bps", "peak_burst_bytes", "_peak_tokens", "peak_deferrals")

    def __init__(self, rate_bps, burst_bytes, limit_bytes, peak_rate_bps, peak_burst_bytes):
        super().__init__(rate_bps, burst_bytes, limit_bytes)
        if peak_rate_bps <= rate_bps:
            raise ValueError("peak rate must exceed the committed rate")
        if peak_burst_bytes <= 0:
            raise ValueError("peak burst must be positive")
        self.peak_rate_bps = peak_rate_bps
        self.peak_burst_bytes = peak_burst_bytes
        self._peak_tokens = float(peak_burst_bytes)
        self.peak_deferrals = 0

    def shaper_stats(self):
        return {"tbf.peak_deferrals_total": self.peak_deferrals}

    def _count_peak_deferral(self, size, peak):
        if peak + 1e-9 < size:
            self.peak_deferrals += 1
            if _obs.ENABLED:
                _obs.SINK.inc("netsim.tbf.peak_deferrals")


class DualTokenBucketFilter(PeakBucketRules, TokenBucketFilter):
    """Two-rate policer: committed (CIR) and peak (PIR) buckets in series.

    A packet is released only when *both* buckets hold its size in
    tokens.  With a large committed burst (the "boost" allowance) and a
    small peak burst, throughput runs at the peak rate until the boost
    is consumed, then steps down to the committed rate -- the signature
    of consumer "speed boost" plans.
    """

    __slots__ = PeakBucketRules.PEAK_SLOTS

    def _replenish(self, now):
        if now > self._last_update:
            dt = now - self._last_update
            self._tokens = min(
                self.burst_bytes, self._tokens + dt * self.rate_bps / 8.0
            )
            self._peak_tokens = min(
                self.peak_burst_bytes,
                self._peak_tokens + dt * self.peak_rate_bps / 8.0,
            )
            self._last_update = now

    def dequeue(self, now):
        queue = self._queue
        head = queue.peek()
        if head is None:
            return None, None
        self._replenish(now)
        size = head.size
        tokens = self._tokens
        peak = self._peak_tokens
        if tokens + 1e-9 >= size and peak + 1e-9 >= size:
            self._tokens = tokens - size if tokens > size else 0.0
            self._peak_tokens = peak - size if peak > size else 0.0
            return queue.dequeue(now)
        self._count_peak_deferral(size, peak)
        if _obs.ENABLED:
            _obs.SINK.inc("netsim.tbf.deferrals")
            _obs.SINK.observe(
                "netsim.tbf.token_debt_bytes",
                max(size - tokens, size - peak, 0.0),
            )
            _obs.SINK.observe(
                "netsim.tbf.occupancy_at_deferral_bytes", queue.backlog_bytes
            )
        wait_cir = (size - tokens) * 8.0 / self.rate_bps if tokens < size else 0.0
        wait_pir = (size - peak) * 8.0 / self.peak_rate_bps if peak < size else 0.0
        return None, now + max(wait_cir, wait_pir) + 1e-9


class TriggerRules:
    """The conditional shaper's trigger, shared by both fidelities.

    A mixin ahead of a token-bucket base; concrete classes declare
    :attr:`TRIGGER_SLOTS` (two slotted bases cannot be combined).
    """

    __slots__ = ()

    #: The trigger deadline is checked on every poll.
    stateful_empty_poll = True

    TRIGGER_SLOTS = (
        "trigger_bytes",
        "trigger_after_s",
        "seen_bytes",
        "tripped",
        "tripped_at",
    )

    def __init__(
        self,
        rate_bps,
        burst_bytes,
        limit_bytes,
        trigger_bytes=4_000_000.0,
        trigger_after_s=None,
    ):
        super().__init__(rate_bps, burst_bytes, limit_bytes)
        if trigger_bytes is None and trigger_after_s is None:
            raise ValueError(
                "conditional shaper needs trigger_bytes and/or trigger_after_s"
            )
        self.trigger_bytes = trigger_bytes
        self.trigger_after_s = trigger_after_s
        self.seen_bytes = 0.0
        self.tripped = False
        self.tripped_at = None
        if trigger_bytes is not None and trigger_bytes <= 0:
            self._trip(0.0)  # zero trigger = always-on policer

    def shaper_stats(self):
        return {
            "conditional.trips_total": 1 if self.tripped else 0,
            "conditional.trigger_seen_bytes": self.seen_bytes,
        }

    def _trip(self, now):
        self.tripped = True
        self.tripped_at = now
        # Throttling starts with a full bucket, as if just configured.
        self._tokens = float(self.burst_bytes)
        if _obs.ENABLED:
            _obs.SINK.inc("netsim.conditional.trips")

    def _maybe_trip_time(self, now):
        if (
            not self.tripped
            and self.trigger_after_s is not None
            and now >= self.trigger_after_s
        ):
            self._trip(now)

    def _count_bytes(self, nbytes, now):
        """Book ``nbytes`` of class traffic toward the byte trigger."""
        self.seen_bytes += nbytes
        if self.trigger_bytes is not None and self.seen_bytes >= self.trigger_bytes:
            self._trip(now)


class ConditionalTokenBucket(TriggerRules, TokenBucketFilter):
    """Delayed throttling: a pure FIFO until a trigger, then a TBF.

    The trigger is a byte volume of class traffic (``trigger_bytes``),
    a wall-clock deadline (``trigger_after_s``), or both (first to
    fire wins).  On tripping, the bucket starts full so the transition
    looks exactly like a policer being switched on -- the qdisc-level
    generalization of ISP5's delayed-trigger classifier.
    """

    __slots__ = TriggerRules.TRIGGER_SLOTS

    def _trip(self, now):
        super()._trip(now)
        # Pre-trigger the bucket is never replenished, so restart its
        # clock here.  (The fluid twin must not: it still integrates the
        # straddling window's background arrivals.)
        self._last_update = now

    def enqueue(self, packet, now):
        self._maybe_trip_time(now)
        if not self.tripped:
            self._count_bytes(packet.size, now)
        return super().enqueue(packet, now)

    def dequeue(self, now):
        self._maybe_trip_time(now)
        if self.tripped:
            return super().dequeue(now)
        # Pre-trigger: line-rate FIFO; tokens stay banked at full burst.
        self._last_update = now
        if self._queue.peek() is None:
            return None, None
        return self._queue.dequeue(now)


# -- the registered mechanisms ----------------------------------------


register(
    "red",
    packet=RedTokenBucket,
    sizing=aqm_sizing,
    doc="Random Early Detection over the throttled class (Floyd/Jacobson)",
)
register(
    "ecn",
    packet=EcnTokenBucket,
    sizing=aqm_sizing,
    doc="RED variant that ECN-marks instead of dropping",
)
register(
    "codel",
    packet=CoDelTokenBucket,
    sizing=aqm_sizing,
    doc="Controlled-Delay AQM, head drops at dequeue (RFC 8289)",
)
register(
    "pie",
    packet=PieTokenBucket,
    sizing=aqm_sizing,
    doc="Proportional-Integral controller Enhanced AQM (RFC 8033)",
)
register(
    "dual_tbf",
    packet=DualTokenBucketFilter,
    sizing=two_rate_sizing,
    doc="two-rate CIR/PIR policer with a boost allowance (RFC 2698 shape)",
)
register(
    "conditional",
    packet=ConditionalTokenBucket,
    sizing=standard_sizing,
    doc="delayed throttling: FIFO until N bytes or T seconds, then TBF",
)
