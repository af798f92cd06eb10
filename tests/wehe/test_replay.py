"""Replay-endpoint tests: wiring traces onto the topology."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim.engine import Simulator
from repro.netsim.topology import FigureOneTopology, TopologyConfig
from repro.wehe.apps import make_trace
from repro.wehe.replay import (
    AckJitter,
    TcpReplaySchedule,
    TraceAppSource,
    attach_replay,
)
from repro.wehe.traces import Trace, bit_invert, extend_to_duration


@pytest.fixture
def rng():
    return np.random.default_rng(19)


def build(limiter=None, rate=3e6):
    sim = Simulator()
    topology = FigureOneTopology(
        sim, TopologyConfig(limiter=limiter, limiter_rate_bps=rate)
    )
    return sim, topology


class TestTraceAppSource:
    def test_availability_follows_schedule(self, rng):
        trace = make_trace("netflix", 10.0, rng)
        source = TraceAppSource(trace, start_at=1.0)
        assert source.available_bytes(0.5) == 0.0
        assert source.available_bytes(1.0 + trace.duration + 1) == trace.total_bytes

    def test_next_release_walks_schedule(self, rng):
        trace = make_trace("zoom", 5.0, rng)
        source = TraceAppSource(trace, start_at=0.0)
        release = source.next_release_after(0.0)
        assert release is not None and release > 0.0
        assert source.next_release_after(trace.duration + 1) is None

    def test_monotone_availability(self, rng):
        trace = make_trace("skype", 5.0, rng)
        source = TraceAppSource(trace)
        values = [source.available_bytes(t) for t in np.linspace(0, 6, 50)]
        assert all(b >= a for a, b in zip(values, values[1:]))


def _searchsorted_reference(schedule, start_at, now):
    """The numpy formulation TraceAppSource must agree with."""
    times = np.asarray([t for t, _ in schedule], dtype=float) + start_at
    cumulative = np.cumsum(np.asarray([s for _, s in schedule], dtype=float))
    index = int(np.searchsorted(times, now, side="right"))
    available = 0.0 if index == 0 else float(cumulative[index - 1])
    release = None if index >= len(times) else float(times[index])
    return available, release


# Times from a coarse grid, so schedules repeat timestamps and queries
# land exactly on release times.
_grid_times = st.integers(min_value=0, max_value=40).map(lambda k: k * 0.025)


class TestTraceAppSourceEquivalence:
    @settings(max_examples=200, deadline=None)
    @given(
        times=st.lists(_grid_times, min_size=1, max_size=30),
        sizes=st.lists(st.integers(min_value=1, max_value=9000), min_size=30, max_size=30),
        start_at=st.sampled_from([0.0, 0.1, 1.0, 1.0 / 3.0]),
        probes=st.lists(
            st.floats(min_value=-1.0, max_value=3.0, allow_nan=False), max_size=10
        ),
    )
    def test_matches_searchsorted_right(self, times, sizes, start_at, probes):
        schedule = tuple(zip(sorted(times), sizes))
        source = TraceAppSource(Trace("netflix", "tcp", schedule), start_at)
        releases = [t + start_at for t, _ in schedule]
        for now in releases + [start_at, *probes]:
            available, release = _searchsorted_reference(schedule, start_at, now)
            assert source.available_bytes(now) == available
            assert source.next_release_after(now) == release
            assert type(source.available_bytes(now)) is float


class TestTcpReplaySchedule:
    """One verdict's shared TCP schedule against per-replay derivations."""

    @pytest.mark.parametrize("duration", [20.0, 60.0])
    def test_shared_sources_answer_like_fresh_ones(self, rng, duration):
        trace = make_trace("netflix", 20.0, rng)
        shared = TcpReplaySchedule(trace, duration)
        extended = extend_to_duration(trace, duration)
        assert shared.schedule == extended.schedule
        times = [t for t, _ in extended.schedule]
        offset = float(rng.uniform(0.02, 0.1))
        # The single and path-1 replays start at warm-up, path 2 an
        # offset later.
        for start_at in (1.0, 1.0 + offset):
            fresh = TraceAppSource(extended, start_at)
            source = shared.app_source(start_at)
            probes = [t + start_at for t in times] + [0.0, start_at - 1e-9, 1e6]
            assert [source.available_bytes(t) for t in probes] == [
                fresh.available_bytes(t) for t in probes
            ]
            assert [source.next_release_after(t) for t in probes] == [
                fresh.next_release_after(t) for t in probes
            ]
        # Sources from one start time share their arrays.
        assert shared.app_source(1.0)._times is shared.app_source(1.0)._times

    def test_inverted_trace_shares_the_schedule_and_keeps_its_sni(self, rng):
        trace = make_trace("netflix", 20.0, rng)
        inverted = bit_invert(trace)
        shared = TcpReplaySchedule(trace, 45.0)
        assert shared.replays(inverted, 45.0)
        assert not shared.replays(inverted, 30.0)
        assert shared.trace(inverted).sni is None
        assert shared.trace(trace).sni == trace.sni
        assert shared.trace(inverted).schedule is shared.schedule

    def test_attach_replay_with_a_shared_schedule_equals_without(self, rng):
        trace = make_trace("netflix", 20.0, rng)
        shared = TcpReplaySchedule(trace, 30.0)
        runs = []
        for tcp_schedule in (None, shared):
            sim, topology = build(limiter="common", rate=2e6)
            handle = attach_replay(
                sim, topology, 1, trace, start_at=0.5, duration=30.0,
                tcp_schedule=tcp_schedule,
            )
            sim.run(until=31.0)
            runs.append((handle.trace, handle.sender.send_times, handle.sender.retx_log))
        assert runs[0] == runs[1]

    def test_attach_replay_rejects_another_traces_schedule(self, rng):
        shared = TcpReplaySchedule(make_trace("netflix", 20.0, rng), 30.0)
        other = make_trace("netflix", 20.0, rng)
        sim, topology = build()
        with pytest.raises(ValueError):
            attach_replay(sim, topology, 1, other, duration=30.0, tcp_schedule=shared)


class TestAckJitter:
    def test_shared_block_draws_equal_interleaved_scalar_draws(self):
        jitter = AckJitter(np.random.default_rng(11))
        reference = np.random.default_rng(11)
        # Two replays draw from the environment's one object in ACK
        # order; the pattern crosses several block refills.
        replay_1, replay_2 = jitter.draw, jitter.draw
        order = np.random.default_rng(5).integers(0, 2, size=3 * AckJitter.BLOCK + 7)
        drawn = [(replay_1 if k == 0 else replay_2)() for k in order]
        expected = [
            float(reference.uniform(0.0, AckJitter.HIGH_S)) for _ in order
        ]
        assert drawn == expected


class TestAttachReplay:
    def test_udp_replay_measures_loss_client_side(self, rng):
        sim, topology = build(limiter="common", rate=1.5e6)
        trace = make_trace("zoom", 20.0, rng)
        handle = attach_replay(sim, topology, 1, trace, start_at=0.5, duration=20.0)
        sim.run(until=22.0)
        measurements = handle.path_measurements()
        # The limiter is below the app rate: losses must be observed.
        assert measurements.packets_lost > 0
        assert measurements.packets_sent == handle.sender.packets_sent
        assert handle.retransmission_rate() > 0

    def test_tcp_replay_measures_loss_server_side(self, rng):
        sim, topology = build(limiter="common", rate=2e6)
        trace = make_trace("netflix", 20.0, rng)
        handle = attach_replay(sim, topology, 1, trace, start_at=0.5, duration=20.0)
        sim.run(until=22.0)
        measurements = handle.path_measurements()
        assert measurements.packets_lost == len(handle.sender.retx_log)
        assert handle.queuing_delay() >= 0.0

    def test_dscp_defaults_follow_sni(self, rng):
        sim, topology = build()
        original = make_trace("zoom", 5.0, rng)
        handle_orig = attach_replay(sim, topology, 1, original, duration=5.0)
        handle_inv = attach_replay(sim, topology, 2, bit_invert(original), duration=5.0)
        assert handle_orig.sender.dscp == 1
        assert handle_inv.sender.dscp == 0

    def test_short_trace_extended_to_duration(self, rng):
        sim, topology = build()
        trace = make_trace("zoom", 5.0, rng)
        handle = attach_replay(sim, topology, 1, trace, duration=30.0)
        assert handle.trace.duration >= 30.0 - 1.0

    def test_throughput_samples_shape(self, rng):
        sim, topology = build()
        trace = make_trace("zoom", 10.0, rng)
        handle = attach_replay(sim, topology, 1, trace, duration=10.0)
        sim.run(until=12.0)
        assert len(handle.throughput_samples()) == 100
        assert handle.mean_throughput() > 0

    def test_inverted_replay_not_throttled(self, rng):
        sim, topology = build(limiter="common", rate=1.5e6)
        trace = make_trace("zoom", 15.0, rng)
        handle = attach_replay(
            sim, topology, 1, bit_invert(trace), start_at=0.5, duration=15.0
        )
        sim.run(until=17.0)
        # dscp=0 bypasses the TBF: essentially no loss.
        assert handle.path_measurements().loss_rate < 0.01
