"""Unit tests for the shaper zoo mechanisms (repro.netsim.shapers)."""

import pytest

from repro.netsim.packet import DATA, Packet
from repro.netsim.qdisc import make_qdisc
from repro.netsim.shapers import (
    ConditionalTokenBucket,
    CoDelTokenBucket,
    DualTokenBucketFilter,
    EcnTokenBucket,
    PieTokenBucket,
    RedTokenBucket,
)


def packet(size=1500, flow="f", seq=0, dscp=1):
    return Packet(flow, DATA, seq, size, dscp=dscp)


def drain(qdisc, now, horizon):
    """Dequeue until empty or past ``horizon``; returns (bytes, end_time)."""
    drained = 0
    while now <= horizon:
        got, wake = qdisc.dequeue(now)
        if got is not None:
            drained += got.size
        elif wake is None:
            break
        elif wake > horizon:
            break
        else:
            now = wake
    return drained, now


class TestRedTokenBucket:
    def _flooded(self, seed=0, cls=RedTokenBucket):
        # Slow service, large queue: the EWMA average climbs past the
        # thresholds as arrivals pile up.
        red = cls(
            1e6, 5000, 150_000, min_th=0.05, max_th=0.5, max_p=0.5,
            w_q=0.5, seed=seed,
        )
        for i in range(100):
            red.enqueue(packet(seq=i, flow=f"f{i}"), i * 0.001)
        return red

    def test_early_drops_engage_under_load(self):
        red = self._flooded()
        assert red.early_drops > 0
        assert red.early_drop_bytes == red.early_drops * 1500
        assert red.avg_queue_bytes > red.min_th_bytes

    def test_drops_include_early_and_tail(self):
        red = self._flooded()
        assert red.drops == red._queue.drops + red.early_drops
        assert red.drops_bytes == red._queue.drops_bytes + red.early_drop_bytes

    def test_seeded_determinism(self):
        a, b = self._flooded(seed=7), self._flooded(seed=7)
        assert (a.early_drops, a.enqueued) == (b.early_drops, b.enqueued)
        other = self._flooded(seed=8)
        assert (other.early_drops, other.enqueued) != (a.early_drops, a.enqueued)

    def test_ecn_marks_instead_of_dropping(self):
        red = self._flooded(cls=EcnTokenBucket)
        assert red.early_drops == 0
        assert red.ecn_marks > 0
        assert red.ecn_mark_bytes == red.ecn_marks * 1500

    def test_all_arrivals_dropped_at_max_threshold(self):
        red = RedTokenBucket(
            1e6, 5000, 30_000, min_th=0.1, max_th=0.3, w_q=1.0
        )
        for i in range(40):
            red.enqueue(packet(seq=i), 0.0)
        # With w_q=1 the average tracks the instantaneous queue, which
        # sits far above max_th: late arrivals are force-dropped.
        assert not red.enqueue(packet(seq=99), 0.0)

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            RedTokenBucket(1e6, 5000, 10_000, min_th=0.5, max_th=0.5)
        with pytest.raises(ValueError):
            RedTokenBucket(1e6, 5000, 10_000, max_p=0.0)

    def test_shaper_stats_harvestable(self):
        red = self._flooded()
        stats = red.shaper_stats()
        assert stats["red.early_drops_total"] == red.early_drops
        assert stats["red.early_drop_bytes_total"] == red.early_drop_bytes


class TestCoDelTokenBucket:
    def test_head_drops_when_sojourn_stays_high(self):
        # Service at 1 Mb/s = 12 ms per 1500 B packet; a 40-deep queue
        # keeps sojourn far above the 5 ms target for many intervals.
        codel = CoDelTokenBucket(1e6, 3000, 100_000, target=0.005, interval=0.05)
        for i in range(40):
            codel.enqueue(packet(seq=i, flow=f"f{i}"), 0.0)
        drained, _ = drain(codel, 0.0, 2.0)
        assert codel.codel_drops > 0
        assert codel.drops == codel._queue.drops + codel.codel_drops
        assert codel.drops_bytes >= codel.codel_drops * 1500

    def test_no_drops_when_sojourn_below_target(self):
        codel = CoDelTokenBucket(8e6, 15_000, 100_000, target=0.1, interval=0.1)
        for i in range(5):
            codel.enqueue(packet(seq=i), i * 0.01)
            codel.dequeue(i * 0.01 + 0.002)
        assert codel.codel_drops == 0

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            CoDelTokenBucket(1e6, 3000, 10_000, target=0.0)


class TestPieTokenBucket:
    def test_drop_probability_rises_under_sustained_delay(self):
        pie = PieTokenBucket(1e6, 3000, 500_000, target=0.01, t_update=0.01)
        now = 0.0
        for i in range(400):
            pie.enqueue(packet(seq=i, flow=f"f{i}"), now)
            now += 0.005
        assert pie.drop_prob > 0.0
        assert pie.early_drops > 0
        assert pie.drops == pie._queue.drops + pie.early_drops

    def test_small_backlog_is_never_early_dropped(self):
        pie = PieTokenBucket(1e6, 3000, 500_000)
        pie._p = 1.0  # even at certain drop probability...
        assert pie.enqueue(packet(), 10.0)  # ...a near-empty queue admits

    def test_seeded_determinism(self):
        def run(seed):
            pie = PieTokenBucket(1e6, 3000, 500_000, target=0.01,
                                 t_update=0.01, seed=seed)
            now = 0.0
            for i in range(300):
                pie.enqueue(packet(seq=i), now)
                now += 0.005
            return pie.early_drops, pie.enqueued

        assert run(5) == run(5)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            PieTokenBucket(1e6, 3000, 10_000, target=-1.0)


class TestDualTokenBucketFilter:
    def test_two_plateaus(self):
        # CIR 1 Mb/s with a 300 kB boost, PIR 4 Mb/s with a tiny burst:
        # the first second drains near the peak rate, later seconds at
        # the committed rate.
        dual = DualTokenBucketFilter(1e6, 300_000, 10_000_000, 4e6, 3000)
        for i in range(600):
            dual.enqueue(packet(seq=i, flow=f"f{i}"), 0.0)
        first = 0
        total = 0
        now = 0.0
        while now <= 4.0:
            got, wake = dual.dequeue(now)
            if got is not None:
                total += got.size
                if now <= 1.0:
                    first += got.size
            elif wake is None or wake > 4.0:
                break
            else:
                now = wake
        later = (total - first) / 3.0  # mean per-second rate after boost
        assert first > 2.5 * later
        assert later == pytest.approx(1e6 / 8.0, rel=0.15)

    def test_never_exceeds_either_envelope(self):
        dual = DualTokenBucketFilter(1e6, 50_000, 10_000_000, 3e6, 4500)
        for i in range(400):
            dual.enqueue(packet(seq=i), 0.0)
        horizon = 2.0
        drained, _ = drain(dual, 0.0, horizon)
        assert drained <= 1e6 / 8.0 * horizon + 50_000 + 1500
        assert drained <= 3e6 / 8.0 * horizon + 4500 + 1500

    def test_peak_deferrals_counted(self):
        dual = DualTokenBucketFilter(1e6, 60_000, 10_000_000, 4e6, 1500)
        dual.enqueue(packet(), 0.0)
        dual.enqueue(packet(), 0.0)
        dual.dequeue(0.0)
        got, wake = dual.dequeue(0.0)  # CIR has tokens, PIR does not
        assert got is None and wake is not None
        assert dual.peak_deferrals == 1

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            DualTokenBucketFilter(2e6, 5000, 10_000, 1e6, 3000)
        with pytest.raises(ValueError):
            DualTokenBucketFilter(1e6, 5000, 10_000, 2e6, 0)


class TestConditionalTokenBucket:
    def test_fifo_until_byte_trigger_then_tbf(self):
        cond = ConditionalTokenBucket(
            1e6, 3000, 100_000, trigger_bytes=15_000
        )
        # Pre-trigger: every dequeue is immediate regardless of rate.
        for i in range(9):
            cond.enqueue(packet(seq=i, flow=f"f{i}"), 0.0)
            got, wake = cond.dequeue(0.0)
            assert got is not None and wake is None
        assert not cond.tripped
        cond.enqueue(packet(seq=9), 0.0)  # 10th packet crosses 15 kB
        assert cond.tripped
        cond.dequeue(0.0)
        cond.enqueue(packet(seq=10), 0.0)
        cond.enqueue(packet(seq=11), 0.0)
        cond.dequeue(0.0)
        got, wake = cond.dequeue(0.0)  # bucket drained: now rate-limited
        assert got is None and wake is not None

    def test_time_trigger(self):
        cond = ConditionalTokenBucket(
            1e6, 3000, 100_000, trigger_after_s=5.0
        )
        cond.enqueue(packet(), 1.0)
        assert not cond.tripped
        cond.enqueue(packet(), 6.0)
        assert cond.tripped and cond.tripped_at == 6.0

    def test_zero_byte_trigger_is_always_on(self):
        cond = ConditionalTokenBucket(1e6, 3000, 100_000, trigger_bytes=0)
        assert cond.tripped

    def test_requires_a_trigger(self):
        with pytest.raises(ValueError, match="trigger"):
            ConditionalTokenBucket(1e6, 3000, 100_000, trigger_bytes=None)

    def test_default_trigger_is_four_megabytes(self):
        assert ConditionalTokenBucket(1e6, 3000, 100_000).trigger_bytes == 4_000_000

    def test_shaper_stats(self):
        cond = ConditionalTokenBucket(1e6, 3000, 100_000, trigger_bytes=1e9)
        cond.enqueue(packet(), 0.0)
        stats = cond.shaper_stats()
        assert stats["conditional.trips_total"] == 0
        assert stats["conditional.trigger_seen_bytes"] == 1500


ALL_DEVICE_MECHANISMS = (
    "tbf", "perflow", "red", "ecn", "codel", "pie", "dual_tbf", "conditional",
)


class TestDeviceConservation:
    """enqueued == dequeued + dropped + queued, for every mechanism."""

    @pytest.mark.parametrize("name", ALL_DEVICE_MECHANISMS)
    def test_packet_conservation(self, name):
        device = make_qdisc(name, rate_bps=2e6, fifo_capacity=30_000)
        accepted = 0
        rejected = 0
        dequeued = 0
        now = 0.0
        for i in range(300):
            # Mixed classes, bursty arrivals.
            p = packet(seq=i, flow=f"f{i % 7}", dscp=i % 3 != 0)
            if device.enqueue(p, now):
                accepted += 1
            else:
                rejected += 1
            if i % 5 == 0:
                got, _ = device.dequeue(now)
                if got is not None:
                    dequeued += 1
            now += 0.0005
        while True:
            got, wake = device.dequeue(now)
            if got is not None:
                dequeued += 1
            elif wake is None:
                break
            else:
                now = wake
        # device.drops counts admission rejections plus any
        # post-acceptance drops (CoDel sheds heads at dequeue); ECN
        # marks are not drops.  Every accepted packet was dequeued,
        # head-dropped, or is still queued.
        head_drops = device.drops - rejected
        assert head_drops >= 0
        assert accepted == dequeued + head_drops + len(device)
        assert device.backlog_bytes == 1500 * len(device)

    @pytest.mark.parametrize("name", ALL_DEVICE_MECHANISMS)
    def test_device_determinism_at_pinned_seed(self, name):
        def run():
            device = make_qdisc(name, rate_bps=2e6, fifo_capacity=30_000)
            now = 0.0
            for i in range(300):
                device.enqueue(
                    packet(seq=i, flow=f"f{i % 5}", dscp=i % 4 != 0), now
                )
                if i % 3 == 0:
                    device.dequeue(now)
                now += 0.0004
            return (device.drops, device.drops_bytes, device.backlog_bytes,
                    len(device))

        assert run() == run()
