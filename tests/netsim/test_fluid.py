"""Hybrid fluid-background model: conservation, calibration, verdicts.

Three layers of guarantees, mirroring DESIGN.md "Hybrid fidelity
model":

- *mechanics*: every fluid queue conserves bytes exactly
  (offered == served + dropped + virtual backlog) and interleaves the
  virtual background with real packets in FIFO order;
- *calibration*: the fluid rate process is drawn from the same seeded
  AR(1) machinery as the packet generators, so byte totals match
  packet mode within sampling noise and trajectories are
  bit-deterministic per seed;
- *equivalence*: a pinned gate cell must produce identical detection
  verdicts in both fidelities while simulating >= 5x fewer events (the
  full grid runs in the ``fidelity`` claim, ``python -m repro.claims``).
"""

import numpy as np
import pytest

from repro.experiments.runner import run_detection_experiment
from repro.experiments.scenarios import ScenarioConfig
from repro.netsim.background import ModulatedPoissonBackground
from repro.netsim.engine import Simulator, events_processed_total
from repro.netsim.fluid import (
    FluidDropTailQueue,
    FluidPerFlowQdisc,
    FluidPoissonBackground,
    FluidTcpBackground,
    FluidTokenBucketFilter,
    TCP_WIRE_OVERHEAD,
    short_flow_pulse,
)
from repro.netsim.link import Link
from repro.netsim.packet import Packet
from repro.store import record_line


def _packet(size=1000, flow="fg", seq=0, dscp=0):
    return Packet(flow, "data", seq, size, dscp=dscp)


def conservation_gap(stats):
    total = (
        stats["bg_bytes_served"]
        + stats["bg_bytes_dropped"]
        + stats["virtual_backlog_bytes"]
    )
    return abs(stats["bg_bytes_offered"] - total)


class TestFluidDropTailQueue:
    def test_conservation_exact(self):
        q = FluidDropTailQueue(capacity_bytes=50_000, service_bps=8e6)
        q.set_source_rate(0.0, "src", 4e6, 2e6)
        # Interleave foreground packets with rate changes and idle gaps.
        t = 0.0
        for step in range(200):
            t += 0.003
            if step % 7 == 0:
                q.set_source_rate(t, "src", 3e6 * (step % 3), 1e6)
            if step % 3 == 0:
                q.enqueue(_packet(seq=step), t)
            q.dequeue(t)
        q._advance(t + 1.0)
        assert conservation_gap(q.fluid_stats()) < 1e-6

    def test_underload_background_passes_through(self):
        q = FluidDropTailQueue(capacity_bytes=50_000, service_bps=10e6)
        q.set_source_rate(0.0, "src", 0.0, 4e6)  # 40% load
        q._advance(10.0)
        stats = q.fluid_stats()
        assert stats["bg_bytes_offered"] == pytest.approx(4e6 / 8 * 10)
        assert stats["bg_bytes_dropped"] == 0.0
        assert stats["virtual_backlog_bytes"] < 1e-6
        assert stats["bg_bytes_served"] == pytest.approx(stats["bg_bytes_offered"])

    def test_overload_drops_excess(self):
        q = FluidDropTailQueue(capacity_bytes=10_000, service_bps=8e6)
        q.set_source_rate(0.0, "src", 0.0, 16e6)  # 2x the service rate
        q._advance(10.0)
        stats = q.fluid_stats()
        # Service drains 1e6 B/s of the 2e6 B/s offered; the rest fills
        # the 10 kB virtual queue once and then drops.
        assert stats["bg_bytes_served"] == pytest.approx(1e6 * 10, rel=0.01)
        assert stats["bg_bytes_dropped"] == pytest.approx(1e6 * 10, rel=0.01)
        assert stats["virtual_backlog_bytes"] == pytest.approx(10_000, rel=0.01)

    def test_head_of_line_defers_behind_virtual_bytes(self):
        q = FluidDropTailQueue(capacity_bytes=100_000, service_bps=8e6)
        q.set_source_rate(0.0, "src", 0.0, 16e6)
        q._advance(0.05)  # builds virtual backlog
        assert q.virtual_backlog_bytes > 0
        assert q.enqueue(_packet(), 0.05)
        packet, wake = q.dequeue(0.05)
        assert packet is None
        ahead = q.virtual_backlog_bytes
        assert wake == pytest.approx(0.05 + ahead * 8.0 / 8e6, abs=1e-6)
        assert q.fluid_deferrals == 1
        # Once the backlog ahead has drained, the head transmits.
        packet, _ = q.dequeue(wake)
        assert packet is not None

    def test_virtual_occupancy_drops_foreground(self):
        q = FluidDropTailQueue(capacity_bytes=5_000, service_bps=8e6)
        q.set_source_rate(0.0, "src", 0.0, 80e6)
        q._advance(0.1)  # virtual backlog pinned at capacity
        assert not q.enqueue(_packet(size=1000), 0.1)
        assert q.drops == 1

    def test_fifo_marks_new_arrivals_behind_real_packet(self):
        q = FluidDropTailQueue(capacity_bytes=100_000, service_bps=8e6)
        assert q.enqueue(_packet(), 0.0)
        # Background arriving after the packet must not delay it.
        q.set_source_rate(0.0, "src", 0.0, 16e6)
        packet, _ = q.dequeue(0.01)
        assert packet is not None


class TestFluidTokenBucketFilter:
    def test_conservation_exact(self):
        tbf = FluidTokenBucketFilter(2e6, 10_000, 30_000)
        tbf.set_fluid_rate(0.0, "src", 1.5e6)
        t = 0.0
        for step in range(200):
            t += 0.004
            if step % 11 == 0:
                tbf.set_fluid_rate(t, "src", 0.5e6 * (step % 5))
            if step % 4 == 0:
                tbf.enqueue(_packet(seq=step, dscp=1), t)
            tbf.dequeue(t)
        tbf._advance(t + 1.0)
        assert conservation_gap(tbf.fluid_stats()) < 1e-6

    def test_fluid_depletes_tokens(self):
        tbf = FluidTokenBucketFilter(2e6, 10_000, 30_000)
        assert tbf.tokens(0.0) == 10_000
        tbf.set_fluid_rate(0.0, "src", 2e6)  # exactly the refill rate
        tbf._advance(1.0)
        # Virtual arrivals consume the whole refill; the burst stays.
        assert tbf.tokens(1.0) == pytest.approx(10_000, rel=0.01)
        tbf.set_fluid_rate(1.0, "src", 4e6)  # 2x: now tokens drain
        tbf._advance(1.04)
        assert tbf.tokens(1.04) < 10_000

    def test_foreground_defers_until_tokens_and_backlog(self):
        tbf = FluidTokenBucketFilter(2e6, 3_000, 300_000)
        tbf.set_fluid_rate(0.0, "src", 8e6)
        tbf._advance(0.1)  # tokens gone, virtual queue filling
        assert tbf.enqueue(_packet(size=1000, dscp=1), 0.1)
        packet, wake = tbf.dequeue(0.1)
        assert packet is None
        assert wake > 0.1
        packet, wake2 = tbf.dequeue(wake)
        # Fluid keeps arriving at 4x the rate, so the head may need
        # more than one deferral; it must always make progress.
        assert packet is not None or wake2 > wake

    def test_overlimit_drops_foreground(self):
        tbf = FluidTokenBucketFilter(2e6, 3_000, 8_000)
        tbf.set_fluid_rate(0.0, "src", 80e6)
        tbf._advance(0.1)
        assert not tbf.enqueue(_packet(size=1000, dscp=1), 0.1)
        assert tbf.drops == 1


class _NullQdisc:
    """Rate sink standing in for a downstream hop in source tests."""

    def __init__(self):
        self.rates = []

    def set_source_rate(self, now, source, marked, unmarked, n_flows=1):
        self.rates.append((now, marked, unmarked))


class _FakeLink:
    def __init__(self, bandwidth_bps):
        self.qdisc = _NullQdisc()
        self.bandwidth_bps = bandwidth_bps


@pytest.mark.parametrize("seed", range(5))
def test_fluid_byte_totals_match_packet_mode(seed):
    """The fluid twin offers the same bytes the packet generator sends.

    With the AR(1) modulation flattened (sigma = 0) both processes run
    at the configured mean rate and the only residual is the packet
    process's sampling noise (Poisson gaps, size mixture) and the fluid
    dither -- a couple of percent over a 20 s window.  (With modulation
    on, the two consume the shared RNG differently -- per-packet draws
    vs dither draws -- so individual trajectories diverge by design;
    only the distribution matches, which the verdict gate checks.)
    """
    mean_rate = 5e6
    duration = 20.0
    flat = ((1.0, 0.0, 0.0),)

    sim_p = Simulator()
    link = Link(sim_p, "wide", 1e9, 0.001)
    from repro.netsim.background import CountingSink
    from repro.netsim.path import Path

    sink = CountingSink()
    ModulatedPoissonBackground(
        sim_p,
        np.random.default_rng(seed),
        Path([link], sink),
        mean_rate,
        modulation=flat,
    )
    sim_p.run(until=duration)
    packet_bytes = sink.bytes

    sim_f = Simulator()
    fluid_bg = FluidPoissonBackground(
        sim_f,
        np.random.default_rng(seed),
        [_FakeLink(1e9)],
        mean_rate,
        modulation=flat,
    )
    sim_f.run(until=duration)
    fluid_bg._push(0.0, 0.0)  # settle the byte integral at `now`
    fluid_bytes = fluid_bg.bytes_offered

    assert fluid_bytes == pytest.approx(packet_bytes, rel=0.05)


def test_fluid_rate_trajectory_deterministic_per_seed():
    def offered(seed):
        sim = Simulator()
        bg = FluidPoissonBackground(
            sim, np.random.default_rng(seed), [_FakeLink(1e9)], 5e6
        )
        sim.run(until=10.0)
        bg._push(0.0, 0.0)
        return bg.bytes_offered, bg.sim.now

    assert offered(7) == offered(7)
    assert offered(7) != offered(8)


def test_fluid_tcp_longlived_rate_is_exact():
    sim = Simulator()
    bg = FluidTcpBackground(
        sim,
        np.random.default_rng(3),
        [_FakeLink(1e9)],
        n_longlived=2,
        longlived_rate_bps=2e6,
        short_flow_rate=0.0,
    )
    sim.run(until=10.0)
    bg._emit()  # settle the byte integral at `now`; rates unchanged
    # Two app-paced flows at 2 Mb/s each, plus TCP wire overhead.
    expected = 2 * 2e6 * TCP_WIRE_OVERHEAD / 8.0 * 10.0
    assert bg.bytes_offered == pytest.approx(expected, rel=1e-6)


def test_fluid_tcp_short_flows_deterministic_per_seed():
    def spawned(seed):
        sim = Simulator()
        bg = FluidTcpBackground(
            sim,
            np.random.default_rng(seed),
            [_FakeLink(1e9)],
            short_flow_rate=2.0,
        )
        sim.run(until=10.0)
        bg._emit()
        return bg.flows_spawned, bg.bytes_offered

    assert spawned(4) == spawned(4)
    assert spawned(4) != spawned(5)


def test_fluid_perflow_polices_only_marked_flows():
    """An unmarked flow must not raise the marked class's admission cap.

    Seed 0 marks one of the two 1.5 Mb/s long-lived flows, so a 1 Mb/s
    per-flow policer admits 1 Mb/s of the marked share and polices the
    rest; the unmarked flow never reaches a bucket.
    """
    sim = Simulator()
    qdisc = FluidPerFlowQdisc(1e6, 5000, 2500)
    link = Link(sim, "c", 100e6, 0.001, qdisc)
    bg = FluidTcpBackground(
        sim,
        np.random.default_rng(0),
        [link],
        n_longlived=2,
        longlived_rate_bps=1.5e6,
        short_flow_rate=0.0,
    )
    sim.run(until=10.0)
    bg._emit()  # settle the policed integral at `now`
    marked_bps = 1.5e6 * TCP_WIRE_OVERHEAD
    assert bg._marked_bps == pytest.approx(marked_bps)
    assert bg._unmarked_bps == pytest.approx(marked_bps)
    expected = (marked_bps - 1e6) / 8.0 * 10.0
    assert qdisc.bg_bytes_policed == pytest.approx(expected, rel=1e-6)
    assert conservation_gap(qdisc.fluid_stats()) < 1e-6


def test_short_flow_pulse_conserves_bytes():
    for size, rtt in ((5_000, 0.02), (200_000, 0.05), (1_000_000, 0.1)):
        rate, duration = short_flow_pulse(size, rtt)
        assert rate * duration / 8.0 == pytest.approx(
            size * TCP_WIRE_OVERHEAD
        )
        assert duration >= 1e-3


def test_multi_hop_rate_clipped_at_upstream_bandwidth():
    sim = Simulator()
    narrow, wide = _FakeLink(2e6), _FakeLink(1e9)
    FluidPoissonBackground(
        sim, np.random.default_rng(0), [narrow, wide], 8e6, dither_period=0.0
    )
    sim.run(until=1.0)
    # The first hop sees the full offered rate; the second at most the
    # first hop's bandwidth.
    assert any(m + u > 2e6 for _, m, u in narrow.qdisc.rates)
    assert all(m + u <= 2e6 + 1e-6 for _, m, u in wide.qdisc.rates)


GATE_CELL = ScenarioConfig(
    app="netflix", limiter="common", rtt_2=0.015, duration=60.0, seed=1
)


class TestHybridEquivalence:
    """One pinned gate cell; the full grid runs in the fidelity claim."""

    def test_verdicts_match_with_5x_fewer_events(self):
        before = events_processed_total()
        packet = run_detection_experiment(GATE_CELL)
        packet_events = events_processed_total() - before
        hybrid = run_detection_experiment(GATE_CELL.with_(fidelity="hybrid"))
        hybrid_events = events_processed_total() - before - packet_events
        assert hybrid.verdicts == packet.verdicts
        assert packet_events >= 5 * hybrid_events

    def test_hybrid_byte_identical_across_runs(self):
        config = GATE_CELL.with_(duration=8.0, fidelity="hybrid")
        first = run_detection_experiment(config)
        second = run_detection_experiment(config)
        assert record_line(first) == record_line(second)

    def test_fidelity_recorded_in_config(self):
        record = run_detection_experiment(
            GATE_CELL.with_(duration=5.0, fidelity="hybrid")
        )
        assert record.config.fidelity == "hybrid"
