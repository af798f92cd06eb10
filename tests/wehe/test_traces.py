"""Trace model and WeHeY trace-transformation tests."""

import numpy as np
import pytest

from repro.wehe import apps, traces
from repro.wehe.apps import APP_SPECS, TCP_APPS, UDP_APPS, make_trace
from repro.wehe.replay import _truncate
from repro.wehe.traces import (
    MIN_REPLAY_DURATION,
    Trace,
    bit_invert,
    extend_to_duration,
    poissonize,
)


@pytest.fixture
def rng():
    return np.random.default_rng(11)


class TestTrace:
    def test_basic_properties(self):
        trace = Trace("app", "udp", ((0.0, 100), (1.0, 200)), sni="x.com")
        assert trace.n_packets == 2
        assert trace.total_bytes == 300
        assert trace.duration == 1.0
        assert trace.mean_rate_bps == pytest.approx(2400.0)
        assert trace.is_original

    def test_rejects_bad_protocol(self):
        with pytest.raises(ValueError):
            Trace("app", "sctp", ((0.0, 100),))

    def test_rejects_unsorted_schedule(self):
        with pytest.raises(ValueError):
            Trace("app", "udp", ((1.0, 100), (0.5, 100)))

    def test_rejects_empty_schedule(self):
        with pytest.raises(ValueError):
            Trace("app", "udp", ())

    def test_rejects_nonpositive_sizes(self):
        with pytest.raises(ValueError):
            Trace("app", "udp", ((0.0, 0),))


class TestBitInvert:
    def test_destroys_sni_keeps_schedule(self, rng):
        original = make_trace("zoom", 10.0, rng)
        inverted = bit_invert(original)
        assert inverted.sni is None
        assert not inverted.is_original
        assert inverted.schedule == original.schedule
        assert inverted.app == original.app

    def test_involution_on_schedule(self, rng):
        original = make_trace("skype", 5.0, rng)
        twice = bit_invert(bit_invert(original))
        assert twice.schedule == original.schedule


class TestPoissonize:
    def test_preserves_sizes_count_and_mean_rate(self, rng):
        original = make_trace("webex", 30.0, rng)
        modified = poissonize(original, rng)
        assert modified.n_packets == original.n_packets
        assert [s for _, s in modified.schedule] == [s for _, s in original.schedule]
        assert modified.mean_rate_bps == pytest.approx(
            original.mean_rate_bps, rel=0.15
        )

    def test_times_become_exponential(self, rng):
        original = make_trace("zoom", 60.0, rng)
        modified = poissonize(original, rng)
        times = np.array([t for t, _ in modified.schedule])
        gaps = np.diff(times)
        # Exponential gaps: CV close to 1 (on/off trace gaps are not).
        cv = gaps.std() / gaps.mean()
        assert 0.8 < cv < 1.2

    def test_rejects_tcp(self, rng):
        trace = make_trace("netflix", 10.0, rng)
        with pytest.raises(ValueError):
            poissonize(trace, rng)

    def test_keeps_sni(self, rng):
        original = make_trace("zoom", 10.0, rng)
        assert poissonize(original, rng).sni == original.sni


class TestExtendToDuration:
    def test_short_trace_is_extended(self, rng):
        trace = make_trace("zoom", 5.0, rng)
        extended = extend_to_duration(trace)
        assert extended.duration >= MIN_REPLAY_DURATION

    def test_long_trace_untouched(self, rng):
        trace = make_trace("zoom", 60.0, rng)
        assert extend_to_duration(trace) is trace

    def test_extension_repeats_schedule(self, rng):
        trace = make_trace("skype", 10.0, rng)
        extended = extend_to_duration(trace, 30.0)
        n = trace.n_packets
        first_sizes = [s for _, s in extended.schedule[:n]]
        second_sizes = [s for _, s in extended.schedule[n : 2 * n]]
        assert first_sizes == second_sizes

    def test_times_remain_sorted(self, rng):
        trace = make_trace("whatsapp", 7.0, rng)
        extended = extend_to_duration(trace, 50.0)
        times = [t for t, _ in extended.schedule]
        assert all(b >= a for a, b in zip(times, times[1:]))


class TestAppLibrary:
    def test_all_apps_generate(self, rng):
        for app in APP_SPECS:
            trace = make_trace(app, 10.0, rng)
            assert trace.n_packets > 0
            assert trace.sni == APP_SPECS[app].sni

    def test_protocol_partition(self):
        assert set(TCP_APPS) | set(UDP_APPS) == set(APP_SPECS)
        assert not set(TCP_APPS) & set(UDP_APPS)

    def test_udp_rate_in_plausible_range(self, rng):
        for app in UDP_APPS:
            trace = make_trace(app, 60.0, rng)
            # within a factor ~2 of the spec's nominal rate
            assert 0.3 * APP_SPECS[app].rate_bps < trace.mean_rate_bps
            assert trace.mean_rate_bps < 2.0 * APP_SPECS[app].rate_bps

    def test_unknown_app_rejected(self, rng):
        with pytest.raises(KeyError):
            make_trace("myspace", 10.0, rng)

    def test_nonpositive_duration_rejected(self, rng):
        with pytest.raises(ValueError):
            make_trace("zoom", 0.0, rng)

    def test_tcp_traces_are_mss_packets(self, rng):
        trace = make_trace("netflix", 10.0, rng)
        assert all(size == 1448 for _, size in trace.schedule)


def _validated(trace):
    """``trace`` rebuilt through the checking constructor."""
    return Trace(trace.app, trace.protocol, trace.schedule, trace.sni)


class TestDerivedTraces:
    """bit_invert, poissonize, extension and truncation skip the checks."""

    def test_bad_user_schedules_still_raise(self):
        for schedule in (
            ((1.0, 100), (0.5, 100)),
            ((0.0, 100), (0.1, 0)),
            ((0.0, -5),),
            (),
        ):
            with pytest.raises(ValueError):
                Trace("app", "udp", schedule)

    @pytest.mark.parametrize("app", ["netflix", "zoom", "skype"])
    def test_every_derived_trace_equals_a_validated_rebuild(self, app, rng):
        trace = make_trace(app, 20.0, rng)
        derived = [
            bit_invert(trace),
            extend_to_duration(trace, 50.0),
            extend_to_duration(bit_invert(trace), 50.0),
            _truncate(trace, 10.0),
            _truncate(trace, 30.0),
        ]
        if trace.protocol == "udp":
            derived.append(poissonize(trace, rng))
            derived.append(_truncate(poissonize(trace, rng), 10.0))
        for result in derived:
            assert type(result) is Trace
            assert result == _validated(result)
            assert hash(result) == hash(_validated(result))

    def test_extension_seams_are_checked(self):
        # A zero median gap makes each copy start where the last one
        # ended.  Here a copy's offset rounds below the previous copy's
        # last time, which the checking constructor rejects; with exact
        # binary times the seams hold.
        rounding = ((0.1, 100), (0.1, 100), (0.3, 100), (0.3, 100), (0.3, 100))
        with pytest.raises(ValueError, match="time-sorted"):
            extend_to_duration(Trace("app", "udp", rounding), 5.0)
        exact = ((0.0, 100), (0.0, 100), (0.25, 100), (0.25, 100), (0.25, 100))
        extended = extend_to_duration(Trace("app", "udp", exact), 5.0)
        assert extended.n_packets == 100
        assert extended == _validated(extended)


class TestTraceMemos:
    @pytest.fixture(autouse=True)
    def empty_memos(self):
        apps._TRACE_CACHE.clear()
        traces._POISSONIZE_CACHE.clear()
        yield
        apps._TRACE_CACHE.clear()
        traces._POISSONIZE_CACHE.clear()

    def test_many_distinct_traces_stay_within_the_bounds(self):
        for seed in range(3 * apps._TRACE_CACHE_MAX):
            rng = np.random.default_rng(seed)
            trace = make_trace("zoom", 2.0, rng)
            poissonize(trace, rng)
            assert len(apps._TRACE_CACHE) <= apps._TRACE_CACHE_MAX
            assert len(traces._POISSONIZE_CACHE) <= traces._POISSONIZE_CACHE_MAX

    def test_oldest_entry_is_evicted_first(self):
        keys = []
        for seed in range(apps._TRACE_CACHE_MAX + 1):
            make_trace("zoom", 2.0, np.random.default_rng(seed))
            keys.append(list(apps._TRACE_CACHE)[-1])
        assert list(apps._TRACE_CACHE) == keys[1:]

    @pytest.mark.parametrize("app", ["netflix", "zoom"])
    def test_a_hit_restores_the_generator_state(self, app):
        first = np.random.default_rng(5)
        trace = make_trace(app, 3.0, first)
        modified = poissonize(trace, first) if trace.protocol == "udp" else trace
        after = first.bit_generator.state
        hits = len(apps._TRACE_CACHE), len(traces._POISSONIZE_CACHE)

        second = np.random.default_rng(5)
        again = make_trace(app, 3.0, second)
        if trace.protocol == "udp":
            assert poissonize(again, second) is modified
        assert again is trace
        assert second.bit_generator.state == after
        assert (len(apps._TRACE_CACHE), len(traces._POISSONIZE_CACHE)) == hits
        # The restored generator continues the uncached stream.
        assert second.random() == first.random()
