"""The paper's Figure-1 topology.

Two paths, ``p1 = (l1, lc)`` and ``p2 = (l2, lc)``, start at different
servers, converge exactly once, and the convergence -- the common link
sequence ``lc`` -- is inside the target network area (the client's ISP).
The WeHe reference path ``p0 = (l0, lc)`` from a third (or the same)
server is also available for the single replay.

The rate limiter can sit on ``lc`` (the scenario WeHeY must detect) or
one copy on each of ``l1``/``l2`` (the adversarial false-positive
scenario of Table 5).  *Where* the limiter sits (``limiter``) is
orthogonal to *what* it is (``shaper``): any mechanism registered with
:mod:`repro.netsim.qdisc` -- tbf, red, codel, pie, dual_tbf,
conditional, ecn, ... -- can be deployed at any placement, with
mechanism parameters passed through ``shaper_params``.
"""

from dataclasses import dataclass, field
from math import inf

from repro.netsim.link import Link
from repro.netsim.multipath import MultipathLink, shaped_member_subset
from repro.netsim.path import DirectPath, Path
from repro.netsim.qdisc import (
    PER_FLOW,
    SEED_STRIDE,
    build_device,
    make_qdisc,
    qdisc_spec,
    supports_fidelity,
)


#: Simulation fidelities (see :mod:`repro.netsim.fluid`).
FIDELITIES = ("packet", "hybrid")
#: Where the rate limiter sits; None deploys none.
LIMITERS = ("common", "noncommon", "perflow", None)
#: Default one-way propagation delay of the common link ``lc``.
COMMON_DELAY_S = 0.002


def build_limiter(config, rate_bps, *knobs, **params):
    """One limiter of ``config``'s mechanism at its placement.

    ``knobs`` are :func:`~repro.netsim.qdisc.build_device`'s sizing
    arguments after ``rate_bps``; ``params`` the mechanism's own.  The
    per-flow placement builds the per-flow device around buckets of the
    mechanism.
    """
    shaper = config.shaper or "tbf"
    if config.limiter == "perflow":
        return build_device(PER_FLOW, config.fidelity, rate_bps, *knobs, shaper=shaper, **params)
    return build_device(shaper, config.fidelity, rate_bps, *knobs, **params)


def validate_device_knobs(config, common_delay_s=COMMON_DELAY_S):
    """Reject impossible device-knob combinations; raises ``ValueError``.

    ``config`` is anything carrying the device knobs under their shared
    names -- ``limiter``, ``fidelity``, ``shaper``, ``shaper_params``,
    ``multipath``, ``flowlet_gap_s``, ``multipath_shaped``, ``rtt_1``
    and ``rtt_2`` -- i.e. a :class:`TopologyConfig` or a
    :class:`~repro.experiments.scenarios.ScenarioConfig`.  Both run this
    one function, so a scenario that constructs is a scenario the
    simulator can build.
    """
    if config.limiter not in LIMITERS:
        raise ValueError(f"unknown limiter placement {config.limiter!r}")
    if config.fidelity not in FIDELITIES:
        raise ValueError(f"unknown fidelity {config.fidelity!r}")
    for name, rtt in (("rtt_1", config.rtt_1), ("rtt_2", config.rtt_2)):
        if rtt <= 2 * common_delay_s:
            raise ValueError(f"{name}={rtt} too small for common delay")
        if not rtt < inf:  # also fails on NaN
            raise ValueError(f"{name}={rtt} must be finite")
    if config.shaper is not None:
        if config.limiter is None:
            raise ValueError("shaper requires a limiter placement")
        if config.limiter != "perflow" and not supports_fidelity(config.shaper, config.fidelity):
            raise ValueError(
                f"shaper {config.shaper!r} has no {config.fidelity} "
                "implementation (AQMs are packet-only)"
            )
        # One limiter, built at the default sizing knobs and dropped, so
        # a misspelt, clashing, missing or out-of-domain argument fails
        # here rather than mid-run.
        try:
            build_limiter(config, *DEFAULT_SIZING, **dict(config.shaper_params))
        except (TypeError, ArithmeticError) as exc:
            raise ValueError(f"bad parameters for qdisc {config.shaper!r}: {exc}") from None
    elif config.shaper_params:
        raise ValueError("shaper_params requires a shaper")
    # ``% 1 == 0`` fails on NaN and infinity as well as on fractions.
    if not (config.multipath >= 0 and config.multipath % 1 == 0):
        raise ValueError("multipath must be a non-negative integer")
    if config.multipath:
        if config.fidelity != "packet":
            # The fluid twins model one queue per link; a bundle's
            # per-member hashing has no fluid counterpart (yet).
            raise ValueError("multipath requires fidelity='packet'")
        if config.flowlet_gap_s is not None and not 0 < config.flowlet_gap_s < inf:
            raise ValueError("flowlet_gap_s must be finite and positive")
        shaped = config.multipath_shaped
        if shaped is not None and not (
            1 <= shaped <= config.multipath and shaped % 1 == 0
        ):
            raise ValueError("multipath_shaped must be an integer in [1, multipath]")
    else:
        if config.flowlet_gap_s is not None:
            raise ValueError("flowlet_gap_s requires multipath >= 1")
        if config.multipath_shaped is not None:
            raise ValueError("multipath_shaped requires multipath >= 1")


@dataclass
class TopologyConfig:
    """Knobs for a Figure-1 instance (defaults match Table 2's bold values).

    Rates are bits/s, times are seconds.  ``limiter`` is ``"common"``,
    ``"noncommon"``, ``"perflow"`` or ``None``.  ``queue_factor`` is the
    TBF queue size as a multiple of the burst (0.25 / 0.5 / 1 in
    Table 2).  ``noncommon_bandwidth_bps`` lets Table 4's congestion
    experiments squeeze ``l1``/``l2``.

    ``shaper`` selects the rate-limiting *mechanism* deployed at the
    ``limiter`` placement (default ``"tbf"``, the paper's device);
    ``shaper_params`` is a tuple of ``(name, value)`` pairs forwarded to
    :func:`~repro.netsim.qdisc.build_device`, and ``shaper_seed`` seeds randomized
    mechanisms (RED/PIE draws), with each limiter instance getting a
    distinct derived seed.
    """

    common_bandwidth_bps: float = 100e6
    common_delay_s: float = COMMON_DELAY_S
    noncommon_bandwidth_bps: float = 100e6
    rtt_1: float = 0.035
    rtt_2: float = 0.035
    limiter: str = None
    limiter_rate_bps: float = 4e6
    queue_factor: float = 0.5
    queue_capacity_bytes: int = 400_000
    extra_server_rtts: tuple = field(default_factory=tuple)
    #: ``"packet"`` builds the exact per-packet qdiscs; ``"hybrid"``
    #: builds their fluid twins so background load can arrive as a rate
    #: process (see :mod:`repro.netsim.fluid`).
    fidelity: str = "packet"
    shaper: str = None
    shaper_params: tuple = ()
    shaper_seed: int = 0
    #: ECMP bundle width of the common device: 0 builds the classic
    #: single ``lc`` link, N >= 1 builds a :class:`MultipathLink` with
    #: N members (each member keeps the full per-member bandwidth, so
    #: the bundle's aggregate capacity is N x ``common_bandwidth_bps``).
    multipath: int = 0
    #: flowlet re-hash gap (seconds); None = sticky ECMP.
    flowlet_gap_s: float = None
    #: how many members carry the limiter (None = all of them); the
    #: subset is a seeded draw, so a deployment that shapes only part
    #: of the bundle is reproducible per seed.
    multipath_shaped: int = None
    #: ECMP hash seed of the bundle.
    multipath_seed: int = 0

    def __post_init__(self):
        validate_device_knobs(self, self.common_delay_s)


#: The sizing knobs of the limiter :func:`validate_device_knobs` builds:
#: the defaults of rate, RTT, queue factor and FIFO capacity.
DEFAULT_SIZING = (
    TopologyConfig.limiter_rate_bps,
    TopologyConfig.rtt_1,
    TopologyConfig.queue_factor,
    TopologyConfig.queue_capacity_bytes,
)


class FigureOneTopology:
    """Builds and owns the links of a Figure-1 experiment."""

    def __init__(self, sim, config):
        self.sim = sim
        self.config = config

        mean_rtt = (config.rtt_1 + config.rtt_2) / 2.0
        self._limiter_index = 0
        self._common_limiter_qdiscs = []
        if config.multipath:
            # The common device is an ECMP bundle: each member gets its
            # own qdisc instance (distinct derived seeds for randomized
            # mechanisms), and only the seeded ``multipath_shaped``
            # subset carries the limiter -- the rest are plain FIFOs.
            # The deployment's shaped capacity is split evenly across
            # the shaped members, so the Section-6.2 load definition
            # (input at ``input_rate_factor`` times the limiter rate)
            # still holds per member when flows spread evenly; per-flow
            # policers keep their full per-flow rate, which hashing
            # cannot dilute.
            shaped = set(
                shaped_member_subset(
                    config.multipath,
                    config.multipath
                    if config.multipath_shaped is None
                    else config.multipath_shaped,
                    config.multipath_seed,
                )
            )
            member_rate = None
            if config.limiter == "common":
                member_rate = config.limiter_rate_bps / len(shaped)
            member_qdiscs = [
                self._common_qdisc(mean_rtt, rate_bps=member_rate)
                if index in shaped
                else self._make_plain()
                for index in range(config.multipath)
            ]
            self.link_c = MultipathLink(
                sim,
                "lc",
                config.common_bandwidth_bps,
                config.common_delay_s,
                member_qdiscs,
                seed=config.multipath_seed,
                flowlet_gap_s=config.flowlet_gap_s,
            )
        else:
            self.link_c = Link(
                sim,
                "lc",
                config.common_bandwidth_bps,
                config.common_delay_s,
                self._common_qdisc(mean_rtt),
            )

        self.noncommon_links = []
        self._rtts = []
        rtts = [config.rtt_1, config.rtt_2] + list(config.extra_server_rtts)
        for i, rtt in enumerate(rtts, start=1):
            if config.limiter == "noncommon":
                qdisc = self._make_limiter(rtt)
            else:
                qdisc = self._make_plain()
            forward_delay = max(rtt / 2.0 - config.common_delay_s, 1e-4)
            link = Link(
                sim,
                f"l{i}",
                config.noncommon_bandwidth_bps,
                forward_delay,
                qdisc,
            )
            self.noncommon_links.append(link)
            self._rtts.append(rtt)

        self.link_1 = self.noncommon_links[0]
        self.link_2 = self.noncommon_links[1]

    def _common_qdisc(self, mean_rtt, rate_bps=None):
        """One common-device qdisc instance per the limiter placement."""
        if self.config.limiter not in ("common", "perflow"):
            return self._make_plain()
        qdisc = self._make_limiter(mean_rtt, rate_bps=rate_bps)
        self._common_limiter_qdiscs.append(qdisc)
        return qdisc

    def _make_plain(self):
        return make_qdisc(
            "droptail",
            fidelity=self.config.fidelity,
            capacity_bytes=self.config.queue_capacity_bytes,
        )

    def _make_limiter(self, rtt, rate_bps=None):
        """One limiter instance of the configured mechanism and placement."""
        config = self.config
        params = dict(config.shaper_params)
        if qdisc_spec(config.shaper or "tbf").seeded:
            # Each limiter instance (noncommon placement builds several,
            # an ECMP bundle one per shaped member) gets its own derived
            # seed, in construction order.
            params.setdefault(
                "seed", config.shaper_seed + SEED_STRIDE * self._limiter_index
            )
            self._limiter_index += 1
        return build_limiter(
            config,
            config.limiter_rate_bps if rate_bps is None else rate_bps,
            rtt,
            config.queue_factor,
            config.queue_capacity_bytes,
            **params,
        )

    def rtt(self, which):
        """Configured RTT of path ``which`` (1-based)."""
        return self._rtts[which - 1]

    def forward_path(self, which, sink):
        """Forward path from server ``which`` to the client sink."""
        return Path([self.noncommon_links[which - 1], self.link_c], sink)

    def reverse_path(self, which, sink, jitter=None):
        """Uncongested reverse (ACK) path for server ``which``."""
        return DirectPath(self.sim, self._rtts[which - 1] / 2.0, sink, jitter=jitter)

    @property
    def limiter_qdisc(self):
        """The rate-limiting qdisc on ``lc``, if any.

        For a multipath common device there is one limiter instance per
        shaped member; this returns the first (see
        :attr:`limiter_qdiscs` for all of them).
        """
        if self.config.limiter in ("common", "perflow"):
            if self._common_limiter_qdiscs:
                return self._common_limiter_qdiscs[0]
        return None

    @property
    def limiter_qdiscs(self):
        """Every limiter qdisc instance on the common device."""
        return tuple(self._common_limiter_qdiscs)
