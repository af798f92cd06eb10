"""Property-based tests (hypothesis) on core invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim.capture import PathMeasurements, binned_loss_series
from repro.netsim.packet import DATA, Packet
from repro.netsim.token_bucket import TokenBucketFilter
from repro.stats.mwu import mann_whitney_u
from repro.stats.spearman import rankdata, spearman_rho
from repro.wehe.traces import Trace, bit_invert, extend_to_duration

finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


class TestTokenBucketProperties:
    @given(
        rate=st.floats(min_value=1e3, max_value=1e8),
        burst=st.integers(min_value=1500, max_value=100_000),
        n_packets=st.integers(min_value=1, max_value=60),
        horizon=st.floats(min_value=0.1, max_value=20.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_output_never_exceeds_rate_times_time_plus_burst(
        self, rate, burst, n_packets, horizon
    ):
        tbf = TokenBucketFilter(rate, burst, 10_000_000)
        for i in range(n_packets):
            tbf.enqueue(Packet("f", DATA, i, 1500), 0.0)
        drained = 0
        now = 0.0
        while now <= horizon:
            packet, wake = tbf.dequeue(now)
            if packet is not None:
                drained += packet.size
            elif wake is None:
                break
            elif wake > horizon:
                break
            else:
                now = wake
        assert drained <= rate / 8.0 * horizon + burst + 1500

    @given(st.floats(min_value=0.0, max_value=100.0))
    @settings(max_examples=30, deadline=None)
    def test_tokens_never_exceed_burst(self, when):
        tbf = TokenBucketFilter(1e6, 5000, 10_000)
        assert tbf.tokens(when) <= 5000


class TestQdiscProperties:
    MECHANISMS = ("tbf", "red", "ecn", "codel", "pie", "dual_tbf", "conditional")

    @given(
        mechanism=st.sampled_from(MECHANISMS),
        rate=st.floats(min_value=5e5, max_value=2e7),
        n_packets=st.integers(min_value=1, max_value=120),
        gap=st.floats(min_value=1e-5, max_value=0.01),
        seed=st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=80, deadline=None)
    def test_every_mechanism_conserves_packets(
        self, mechanism, rate, n_packets, gap, seed
    ):
        from repro.netsim.qdisc import make_qdisc

        device = make_qdisc(
            mechanism, rate_bps=rate, fifo_capacity=30_000, seed=seed
        ) if mechanism in ("red", "ecn", "pie") else make_qdisc(
            mechanism, rate_bps=rate, fifo_capacity=30_000
        )
        accepted = rejected = dequeued = 0
        now = 0.0
        for i in range(n_packets):
            ok = device.enqueue(
                Packet(f"f{i % 5}", DATA, i, 1500, dscp=i % 3 != 0), now
            )
            accepted += ok
            rejected += not ok
            if i % 4 == 0:
                got, _ = device.dequeue(now)
                dequeued += got is not None
            now += gap
        while True:
            got, wake = device.dequeue(now)
            if got is not None:
                dequeued += 1
            elif wake is None:
                break
            else:
                now = wake
        head_drops = device.drops - rejected
        assert head_drops >= 0
        assert accepted == dequeued + head_drops + len(device)
        assert device.drops_bytes == device.drops * 1500

    @given(
        mechanism=st.sampled_from(MECHANISMS),
        seed=st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=40, deadline=None)
    def test_seeded_device_is_byte_deterministic(self, mechanism, seed):
        from repro.netsim.qdisc import make_qdisc

        def run():
            kwargs = {"rate_bps": 1e6, "fifo_capacity": 30_000}
            if mechanism in ("red", "ecn", "pie"):
                kwargs["seed"] = seed
            device = make_qdisc(mechanism, **kwargs)
            now = 0.0
            for i in range(150):
                device.enqueue(
                    Packet(f"f{i % 5}", DATA, i, 1500, dscp=i % 4 != 0), now
                )
                if i % 3 == 0:
                    device.dequeue(now)
                now += 0.0004
            return (device.drops, device.drops_bytes,
                    device.backlog_bytes, len(device))

        assert run() == run()

    #: Per mechanism, parameter sets its device takes (the sizing knobs
    #: ``rtt_s``, ``queue_factor`` and ``fifo_capacity`` are the
    #: placement's, so a config naming them is rejected).
    PARAMS = {
        "tbf": ((),),
        "red": ((), (("max_p", 0.2),), (("buffer_s", 0.1), ("seed", 3))),
        "ecn": ((), (("w_q", 0.1),)),
        "codel": ((), (("target", 0.01), ("interval", 0.2))),
        "pie": ((), (("alpha", 0.25),)),
        "dual_tbf": ((), (("peak_factor", 3.0), ("boost_bytes", 250_000))),
        "conditional": ((), (("trigger_after_s", 2.0),)),
    }

    @given(
        shaper_params=st.sampled_from(
            [(shaper, params) for shaper, sets in PARAMS.items() for params in sets]
        ),
    )
    @settings(max_examples=30, deadline=None)
    def test_shaper_config_round_trips_through_serialization(self, shaper_params):
        shaper, params = shaper_params
        from repro.experiments.scenarios import ScenarioConfig
        from repro.store.serialize import config_from_dict, config_to_dict

        config = ScenarioConfig(
            app="netflix", duration=5.0, shaper=shaper, shaper_params=params
        )
        restored = config_from_dict(config_to_dict(config))
        assert restored == config
        assert restored.shaper_params == params


class TestRankProperties:
    @given(st.lists(finite_floats, min_size=1, max_size=100))
    @settings(max_examples=80)
    def test_ranks_sum_invariant(self, values):
        n = len(values)
        assert rankdata(values).sum() == n * (n + 1) / 2

    @given(st.lists(finite_floats, min_size=3, max_size=100, unique=True))
    @settings(max_examples=60)
    def test_spearman_bounded_and_symmetric(self, values):
        rng = np.random.default_rng(abs(hash(tuple(values))) % 2**31)
        other = list(rng.permutation(values))
        rho = spearman_rho(values, other)
        assert -1.0 - 1e-9 <= rho <= 1.0 + 1e-9
        assert spearman_rho(other, values) == rho

    @given(st.lists(finite_floats, min_size=3, max_size=60, unique=True))
    @settings(max_examples=60)
    def test_spearman_self_correlation_is_one(self, values):
        assert spearman_rho(values, values) == 1.0


class TestMwuProperties:
    @given(
        st.lists(finite_floats, min_size=2, max_size=60),
        st.lists(finite_floats, min_size=2, max_size=60),
    )
    @settings(max_examples=60)
    def test_pvalue_in_unit_interval(self, x, y):
        for alternative in ("less", "greater", "two-sided"):
            result = mann_whitney_u(x, y, alternative=alternative)
            assert 0.0 <= result.pvalue <= 1.0

    @given(st.lists(finite_floats, min_size=5, max_size=60, unique=True))
    @settings(max_examples=40)
    def test_one_sided_pvalues_complementary_direction(self, x):
        shifted = [v + 1.0 for v in x]
        less = mann_whitney_u(x, shifted, alternative="less").pvalue
        greater = mann_whitney_u(x, shifted, alternative="greater").pvalue
        assert less <= greater


class TestTraceProperties:
    @st.composite
    def traces(draw):
        n = draw(st.integers(min_value=2, max_value=60))
        gaps = draw(
            st.lists(
                st.floats(min_value=1e-4, max_value=0.5),
                min_size=n,
                max_size=n,
            )
        )
        sizes = draw(
            st.lists(
                st.integers(min_value=1, max_value=1500), min_size=n, max_size=n
            )
        )
        times = np.cumsum(gaps)
        schedule = tuple((float(t), s) for t, s in zip(times, sizes))
        return Trace("app", "udp", schedule, sni="x.com")

    @given(traces())
    @settings(max_examples=60)
    def test_bit_invert_is_schedule_preserving_involution(self, trace):
        inverted = bit_invert(trace)
        assert inverted.schedule == trace.schedule
        assert bit_invert(inverted).schedule == trace.schedule
        assert inverted.sni is None

    @given(traces(), st.floats(min_value=1.0, max_value=120.0))
    @settings(max_examples=60, deadline=None)
    def test_extension_reaches_duration_and_preserves_bytes_ratio(
        self, trace, min_duration
    ):
        extended = extend_to_duration(trace, min_duration)
        assert extended.duration >= min(min_duration, trace.duration)
        assert extended.n_packets % trace.n_packets == 0
        repeats = extended.n_packets // trace.n_packets
        assert extended.total_bytes == repeats * trace.total_bytes


class TestBinningProperties:
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        interval=st.floats(min_value=0.2, max_value=5.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_series_equal_length_and_rates_nonnegative(self, seed, interval):
        rng = np.random.default_rng(seed)
        sends = np.sort(rng.uniform(0, 30, 2000))
        m1 = PathMeasurements(sends, rng.uniform(0, 30, 50), 0.03)
        m2 = PathMeasurements(sends, rng.uniform(0, 30, 50), 0.03)
        s1, s2 = binned_loss_series(m1, m2, interval)
        assert len(s1) == len(s2)
        assert np.all(s1 >= 0) and np.all(s2 >= 0)
