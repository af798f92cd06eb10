"""Zero-load equivalence: a fluid twin with no fluid source is its packet device.

Every mechanism registered at both fidelities gets the same seeded
arrival stream through a :class:`~repro.netsim.link.Link` twice -- once
with the packet device, once with the hybrid device and no background
source pushing a rate.  With zero virtual load the two must accept and
drop the same packets and release them in the same order, at the same
times up to float rounding (the two token-bucket integrations round
``rate x dt`` in a different operation order).
"""

import numpy as np
import pytest

from repro.netsim.engine import Simulator
from repro.netsim.link import Link
from repro.netsim.packet import DATA, Packet
from repro.netsim.path import Path
from repro.netsim.qdisc import make_qdisc, registered_qdiscs, supports_fidelity

LINK_BPS = 4e6
DELAY_S = 0.002

#: Device parameters per mechanism, chosen so every device throttles:
#: ~5 Mb/s offered into a 4 Mb/s link overflows the plain FIFO, ~3 Mb/s
#: of it marked meets a 1 Mb/s class rate, the dual bucket's peak rate
#: sits below the class's share of the link while its boost lasts, and
#: the conditional trigger trips mid-stream.
TWIN_PARAMS = {
    "droptail": {"capacity_bytes": 30_000},
    "tbf": {"rate_bps": 1e6},
    "perflow": {"rate_bps": 1e6},
    "dual_tbf": {"rate_bps": 1e6, "peak_factor": 1.5, "boost_bytes": 60_000},
    "conditional": {"rate_bps": 1e6, "trigger_bytes": 60_000},
}

TWINS = [name for name in registered_qdiscs() if supports_fidelity(name, "hybrid")]


class _Recorder:
    """Sink of a one-link path: the link hands every transmitted packet here."""

    def __init__(self, sim):
        self.sim = sim
        self.departures = []

    def receive(self, packet):
        self.departures.append((packet.seq, self.sim._now))


def _arrivals(seed, n=2500):
    """Seeded (time, flow, size, dscp) stream: ~5 Mb/s, 4 flows, mixed sizes."""
    rng = np.random.default_rng(seed)
    sizes = rng.choice([200, 600, 1500], size=n, p=[0.2, 0.3, 0.5])
    gaps = rng.exponential(sizes.mean() * 8.0 / 5e6, size=n)
    flows = rng.integers(0, 4, size=n)
    marked = rng.random(n) < 0.6
    times = np.cumsum(gaps)
    return [
        (float(t), f"f{flow}", int(size), 1 if mark else 0)
        for t, flow, size, mark in zip(times, flows, sizes, marked)
    ]


def _run(name, fidelity, stream):
    sim = Simulator()
    qdisc = make_qdisc(name, fidelity=fidelity, **TWIN_PARAMS[name])
    link = Link(sim, "device", LINK_BPS, DELAY_S, qdisc)
    recorder = _Recorder(sim)
    path = Path([link], recorder)

    def arrive(seq, flow, size, dscp):
        path.inject(Packet(flow, DATA, seq, size, dscp=dscp))

    for seq, (t, flow, size, dscp) in enumerate(stream):
        sim.schedule_at(t, arrive, seq, flow, size, dscp)
    sim.run()
    shaper = getattr(qdisc, "tbf", None)
    stats = shaper.shaper_stats() if hasattr(shaper, "shaper_stats") else {}
    return recorder.departures, qdisc.drops, stats


def test_every_twin_has_parameters():
    assert set(TWINS) == set(TWIN_PARAMS)


@pytest.mark.parametrize("name", TWINS)
def test_fluid_twin_inherits_its_packet_rules(name):
    """Each fluid part subclasses its packet part, or inherits every base
    of it (two-rate and conditional twins share the rule mixins and the
    token bucket, not the packet class's own replenish/dequeue)."""
    packet = make_qdisc(name, **TWIN_PARAMS[name])
    fluid = make_qdisc(name, fidelity="hybrid", **TWIN_PARAMS[name])
    for part in ("tbf", "fifo"):
        if hasattr(packet, part):
            assert _inherits(getattr(fluid, part), getattr(packet, part)), part
    assert _inherits(fluid, packet)


def _inherits(fluid_part, packet_part):
    want = type(packet_part).__mro__
    got = type(fluid_part).__mro__
    return want[0] in got or set(want[1:]) <= set(got)


@pytest.mark.parametrize("name", TWINS)
def test_zero_load_twin_matches_packet_device(name):
    stream = _arrivals(seed=11)
    packet_out, packet_drops, packet_stats = _run(name, "packet", stream)
    fluid_out, fluid_drops, fluid_stats = _run(name, "hybrid", stream)
    # The device must actually throttle for the comparison to mean
    # anything, and a two-rate or conditional shaper must have used its
    # extra rule (peak-bucket deferrals, a trip).
    assert packet_drops > 0
    assert all(value > 0 for value in packet_stats.values())
    # Same accept/drop decisions, shaper statistics and departure order ...
    assert fluid_drops == packet_drops
    assert fluid_stats == packet_stats
    assert [seq for seq, _ in fluid_out] == [seq for seq, _ in packet_out]
    # ... at the same times, up to token-arithmetic rounding.
    worst = max(abs(a - b) for (_, a), (_, b) in zip(fluid_out, packet_out))
    assert worst <= 1e-12
