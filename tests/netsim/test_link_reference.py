"""The lazy transmit-done link against the eager reference model.

:class:`repro.netsim.link.Link` pushes a transmission's done event only
when a packet waits behind it or the qdisc's empty poll changes state;
:class:`eager_link.EagerLink` pushes it for every transmission.  Both
run the same random schedules -- continuous times, 1-3 hop paths, every
kind of qdisc the simulator builds -- and every packet must leave each
qdisc and reach its sink at the same time, in the same order, with the
same drops and the same qdisc statistics.  Explicit cases cover the
exact-time edges: a TBF wake during a transmission, an arrival at
exactly the end of a transmission with and without a pushed done, and a
path without a sink.
"""

import random

import pytest
from eager_link import EagerLink
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim.engine import Simulator
from repro.netsim.link import Link
from repro.netsim.multipath import MultipathLink
from repro.netsim.packet import DATA, Packet
from repro.netsim.path import Path
from repro.netsim.qdisc import Qdisc, make_qdisc
from repro.netsim.queues import DropTailQueue
from repro.netsim.token_bucket import TokenBucketFilter

KINDS = (
    "droptail",
    "tbf",
    "dual_tbf",
    "dualclass",
    "codel",
    "conditional",
    "fluid",
    "multipath",
)


class Recorder(Qdisc):
    """Logs what leaves (and is refused by) a qdisc, changing nothing."""

    def __init__(self, inner, log):
        self.inner = inner
        self.log = log

    @property
    def stateful_empty_poll(self):
        return getattr(self.inner, "stateful_empty_poll", True)

    def enqueue(self, packet, now):
        accepted = self.inner.enqueue(packet, now)
        if not accepted:
            self.log.append(("drop", now, packet.flow_id, packet.seq))
        return accepted

    def dequeue(self, now):
        packet, wake = self.inner.dequeue(now)
        if packet is not None:
            self.log.append(("depart", now, packet.flow_id, packet.seq))
        return packet, wake

    def __len__(self):
        return len(self.inner)

    def __getattr__(self, name):
        return getattr(self.inner, name)


class Sink:
    def __init__(self, sim, arrivals):
        self.sim = sim
        self.arrivals = arrivals

    def receive(self, packet):
        self.arrivals.append((self.sim._now, packet.flow_id, packet.seq))


def qdisc_stats(qdisc):
    """The statistics a qdisc (and every class inside it) reports."""
    stats = {
        "len": len(qdisc),
        "drops": qdisc.drops,
        "drops_bytes": qdisc.drops_bytes,
        "backlog_bytes": qdisc.backlog_bytes,
    }
    for name in ("enqueued", "mean_delay", "tripped_at", "seen_bytes"):
        if hasattr(qdisc, name):
            stats[name] = getattr(qdisc, name)
    for method in ("shaper_stats", "fluid_stats"):
        if hasattr(qdisc, method):
            stats[method] = getattr(qdisc, method)()
    for part in ("fifo", "tbf"):
        if hasattr(qdisc, part):
            stats[part] = qdisc_stats(getattr(qdisc, part))
    return stats


def make_inner(kind, rate_bps, rnd):
    """One qdisc of ``kind`` for a link of ``rate_bps``; ``rnd`` sizes it."""
    shaping = rate_bps * rnd.uniform(0.1, 0.8)
    if kind in ("droptail", "multipath"):
        return DropTailQueue(rnd.choice((3000, 8000, 500_000)))
    if kind == "tbf":
        return TokenBucketFilter(shaping, rnd.choice((3000, 6000)), rnd.choice((3000, 20_000)))
    if kind == "dual_tbf":
        return make_qdisc("dual_tbf", rate_bps=shaping, boost_bytes=rnd.choice((3000, 30_000)))
    if kind == "dualclass":
        return make_qdisc("tbf", rate_bps=shaping, fifo_capacity=rnd.choice((6000, 500_000)))
    if kind == "codel":
        return make_qdisc("codel", rate_bps=shaping, target=0.001, interval=0.01)
    if kind == "conditional":
        return make_qdisc(
            "conditional", rate_bps=shaping,
            trigger_bytes=rnd.choice((5000.0, None)), trigger_after_s=rnd.uniform(0.0, 0.05),
        )
    if kind == "fluid":
        return make_qdisc("tbf", fidelity="hybrid", rate_bps=shaping)
    raise ValueError(kind)


def build_and_run(link_cls, kinds, seed, until=0.3):
    """Run one random schedule over ``kinds`` hops; return what was seen."""
    rnd = random.Random(seed)
    sim = Simulator()
    logs = {}
    hops = []
    fluid = []
    for i, kind in enumerate(kinds):
        bandwidth = rnd.uniform(2e6, 20e6)
        delay = rnd.uniform(1e-4, 5e-3)
        if kind == "multipath":
            members = [Recorder(make_inner(kind, bandwidth, rnd), logs.setdefault(f"{i}.m{m}", []))
                       for m in range(2)]
            bundle = MultipathLink(sim, f"h{i}", bandwidth, delay, members, seed=seed)
            if link_cls is not Link:
                bundle.members = tuple(
                    link_cls(sim, member.name, bandwidth, delay, member.qdisc)
                    for member in bundle.members
                )
            hops.append(bundle)
            continue
        qdisc = Recorder(make_inner(kind, bandwidth, rnd), logs.setdefault(str(i), []))
        if kind == "fluid":
            fluid.append(qdisc)
        hops.append(link_cls(sim, f"h{i}", bandwidth, delay, qdisc))
    arrivals = []
    for flow in range(rnd.randint(1, 4)):
        entry = rnd.randrange(len(hops))
        sink = Sink(sim, arrivals) if rnd.random() < 0.75 else None
        path = Path(hops[entry:], sink)
        t = rnd.uniform(0.0, 0.02)
        for seq in range(rnd.randint(1, 60)):
            t += rnd.expovariate(1.0 / rnd.choice((2e-4, 1e-3, 5e-3)))
            packet = Packet(
                f"f{flow}", DATA, seq, rnd.choice((72, 576, 1500, 1500)),
                1 if rnd.random() < 0.6 else 0, t,
            )
            sim.schedule_at(t, path.inject, packet)
    for qdisc in fluid:
        t = 0.0
        for _ in range(rnd.randint(1, 5)):
            t += rnd.uniform(0.0, 0.08)
            sim.schedule_at(
                t, lambda q=qdisc, m=rnd.uniform(0, 5e6), u=rnd.uniform(0, 5e6):
                q.set_source_rate(sim._now, "bg", m, u)
            )
    sim.run(until=until)
    links = [m for hop in hops for m in getattr(hop, "members", (hop,))]
    stats = [qdisc_stats(link.qdisc.inner) for link in links]
    return logs, arrivals, stats


def assert_same(kinds, seed, until=0.3):
    lazy = build_and_run(Link, kinds, seed, until)
    eager = build_and_run(EagerLink, kinds, seed, until)
    logs, arrivals, stats = lazy
    assert logs == eager[0]
    assert arrivals == eager[1]
    assert stats == eager[2]
    return lazy


@given(
    kinds=st.lists(st.sampled_from(KINDS), min_size=1, max_size=3),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=150, deadline=None)
def test_random_schedules_match_the_eager_link(kinds, seed):
    assert_same(kinds, seed)


def test_every_kind_alone_and_behind_another():
    for kind in KINDS:
        for seed in range(6):
            assert_same([kind], seed)
            assert_same(["droptail", kind], seed)
            assert_same([kind, "dualclass", "codel"], seed)


# -- exact-time edges -------------------------------------------------


def two_models(build):
    """Run ``build(link_cls)`` for both links; both must see the same."""
    lazy = build(Link)
    assert lazy == build(EagerLink)
    return lazy


def single_link_run(link_cls, qdisc_factory, injections):
    """Inject ``(time, size, dscp)`` packets into one 8 Mb/s link."""
    sim = Simulator()
    log = []
    link = link_cls(sim, "l", 8e6, 0.002, Recorder(qdisc_factory(), log))
    arrivals = []
    path = Path([link], Sink(sim, arrivals))
    for seq, (t, size, dscp) in enumerate(injections):
        sim.schedule_at(t, path.inject, Packet("f", DATA, seq, size, dscp, t))
    sim.run(until=1.0)
    return log, arrivals, qdisc_stats(link.qdisc.inner)


def test_arrival_at_busy_until_without_a_pushed_done():
    # 1000 B at 8 Mb/s is exactly 1 ms: the second packet arrives when
    # the first one's serialization ends, and nothing waited behind it.
    log, arrivals, _ = two_models(
        lambda cls: single_link_run(cls, DropTailQueue, [(0.0, 1000, 0), (0.001, 1000, 0)])
    )
    assert [entry[1] for entry in log] == [0.0, 0.001]
    assert [entry[0] for entry in arrivals] == [0.003, 0.004]


def test_arrival_at_busy_until_with_a_pushed_done():
    # The second packet waits, so the first one's done is on the heap
    # when the third arrives at exactly its time.
    log, arrivals, _ = two_models(
        lambda cls: single_link_run(
            cls, DropTailQueue, [(0.0, 1000, 0), (0.0005, 1000, 0), (0.001, 1000, 0)]
        )
    )
    assert [entry[1] for entry in log] == [0.0, 0.001, 0.002]
    assert [seq for _, _, seq in arrivals] == [0, 1, 2]


class WakeWatch(Link):
    """A link that counts wake-ups arriving mid-serialization."""

    __slots__ = ("busy_wakes",)

    def __init__(self, *args):
        super().__init__(*args)
        self.busy_wakes = 0

    def _on_wake(self):
        self.busy_wakes += self.sim._now < self._busy_until
        super()._on_wake()


def test_tbf_wake_fires_while_the_link_is_busy():
    # Two throttled packets drain the 3000 B bucket, so the third waits
    # for a wake-up at 12 ms; an unthrottled packet arriving at 11.1 ms
    # is on the wire until 12.6 ms.
    def device():
        return make_qdisc("tbf", rate_bps=1e6, rtt_s=0.0, queue_factor=10.0)

    injections = [(0.0, 1500, 1), (0.0001, 1500, 1), (0.0002, 1500, 1), (0.0111, 1500, 0)]
    watched = []

    def watched_link(*args):
        watched.append(WakeWatch(*args))
        return watched[-1]

    def build(link_cls):
        return single_link_run(watched_link if link_cls is Link else link_cls, device, injections)

    log, _, stats = two_models(build)
    assert watched[0].busy_wakes > 0
    assert [entry[3] for entry in log] == [0, 1, 3, 2]
    assert stats["tbf"]["drops"] == 0


def test_sinkless_last_hop():
    def build(link_cls):
        sim = Simulator()
        logs = ([], [])
        first = link_cls(sim, "a", 8e6, 0.001, Recorder(DropTailQueue(), logs[0]))
        second = link_cls(sim, "b", 4e6, 0.001, Recorder(DropTailQueue(), logs[1]))
        path = Path([first, second], None)
        for seq in range(10):
            t = 0.0003 * seq
            sim.schedule_at(t, path.inject, Packet("bg", DATA, seq, 1500, 0, t))
        sim.run(until=1.0)
        return logs, second.bytes_sent, second.packets_sent

    logs, bytes_sent, packets_sent = two_models(build)
    assert len(logs[1]) == 10 and (bytes_sent, packets_sent) == (15000, 10)


def test_codel_state_resets_at_the_done_poll():
    # A jumbo head keeps CoDel's first-above-target time set through its
    # class's last dequeue (the two-MTU floor does not reset it); only
    # the done's empty poll clears it before the next burst, which
    # queues behind an unthrottled packet and would otherwise be
    # head-dropped at once.
    def device():
        return make_qdisc(
            "codel", rate_bps=80e6, rtt_s=0.01, target=0.0005, interval=0.002,
            buffer_s=0.01,
        )

    burst = [(0.0, 4000, 1), (0.0001, 4000, 1)]
    later = [(0.03, 1500, 0), (0.0301, 4000, 1), (0.0302, 1500, 1)]
    log, _, stats = two_models(lambda cls: single_link_run(cls, device, burst + later))
    assert stats["tbf"]["shaper_stats"]["codel.drops_total"] == 0
    assert len(log) == 5


def test_conditional_trips_at_the_done_poll():
    # The deadline passes while the class is empty: the poll at the end
    # of the unthrottled packet's serialization trips it, not the next
    # throttled arrival.
    def device():
        return make_qdisc(
            "conditional", rate_bps=1e6, trigger_bytes=None, trigger_after_s=0.0021
        )

    injections = [(0.0, 1500, 1), (0.0011, 1000, 0), (0.01, 1500, 1)]
    _, _, stats = two_models(lambda cls: single_link_run(cls, device, injections))
    assert stats["tbf"]["tripped_at"] == pytest.approx(0.0025)

