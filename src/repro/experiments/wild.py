"""In-the-wild evaluation models -- Section 5 (Table 1, Figure 4).

The paper tested WeHeY's throughput-comparison algorithm against five
U.S. cellular ISPs that throttle video *per client* (e.g. "video at
480p").  We model each ISP as a per-client token-bucket policer on the
common link sequence -- only the client's own targeted-service traffic
enters it (no background competes inside), which is what makes the
aggregate simultaneous throughput add up to the single-replay
throughput.

ISP5 reproduces the paper's pathological case: its fixed-rate
throttling (2.5 Mbps) engages only after a data-volume criterion is
met, so during a simultaneous replay (two servers streaming at once)
the criterion trips roughly twice as fast, the throughput time series
of single and simultaneous replays diverge (Figure 4), and the
throughput comparison fails.

"Sanity check" tests add a third server replaying concurrently during
the original simultaneous replay; p1 + p2 then share the per-client
policer with a third path, their aggregate no longer adds up to X, and
the algorithm must *not* detect a common bottleneck.

:class:`WildReplayService` supplies only its ISP network
(:class:`_IspEnvironment`); the replays themselves are the scenario
services' (:class:`repro.experiments.runner.OverlappedReplays`).
"""

import zlib
from dataclasses import dataclass

import numpy as np

from repro.core.localizer import WeHeYLocalizer
from repro.experiments.runner import (
    DRAIN,
    WARMUP,
    OverlappedReplays,
    _Environment,
    _poisson_background,
)
from repro.netsim.engine import Simulator
from repro.netsim.topology import FigureOneTopology, TopologyConfig
from repro.wehe import traces
from repro.wehe.apps import make_trace
from repro.wehe.corpus import generate_corpus, tdiff_distribution
from repro.wehe.loss_measurement import RetransmissionLossEstimator
from repro.wehe.replay import AckJitter


@dataclass(frozen=True)
class IspModel:
    """One wild ISP's per-client throttling policy."""

    name: str
    throttle_rate_bps: float
    queue_factor: float
    rtt: float
    #: bytes of targeted-service traffic before throttling engages
    #: (None = always on).  ISP5's conditional policy.
    trigger_bytes: float = None
    trigger_jitter: float = 0.0
    #: rate-limiting mechanism deployed on the common link (None = the
    #: paper's token-bucket policer; any registered qdisc name works).
    shaper: str = None
    #: mechanism parameters as ``(name, value)`` pairs.
    shaper_params: tuple = ()


#: The five ISPs of Table 1 (anonymized in the paper; parameters are
#: plausible per-client video-throttling configurations).
WILD_ISPS = {
    "ISP1": IspModel("ISP1", 2.5e6, 0.5, 0.045),
    "ISP2": IspModel("ISP2", 3.0e6, 0.25, 0.055),
    "ISP3": IspModel("ISP3", 2.0e6, 0.5, 0.040),
    "ISP4": IspModel("ISP4", 4.0e6, 1.0, 0.060),
    "ISP5": IspModel(
        "ISP5", 2.5e6, 0.5, 0.050, trigger_bytes=12e6, trigger_jitter=0.3
    ),
}

#: Hypothetical ISPs deploying the wider shaper zoo (AQM, two-rate,
#: qdisc-level conditional throttling).  Kept separate from the
#: Table-1 five so the paper-reproduction sweeps are unchanged;
#: :func:`isp_model` looks names up across both.
ZOO_ISPS = {
    "ZOO-RED": IspModel("ZOO-RED", 2.5e6, 0.5, 0.045, shaper="red"),
    "ZOO-CODEL": IspModel("ZOO-CODEL", 3.0e6, 0.5, 0.050, shaper="codel"),
    "ZOO-PIE": IspModel("ZOO-PIE", 2.5e6, 0.5, 0.045, shaper="pie"),
    "ZOO-ECN": IspModel("ZOO-ECN", 2.5e6, 0.5, 0.045, shaper="ecn"),
    "ZOO-DUAL": IspModel(
        "ZOO-DUAL",
        2.0e6,
        0.5,
        0.050,
        shaper="dual_tbf",
        shaper_params=(("peak_factor", 2.0), ("boost_bytes", 3_000_000)),
    ),
    "ZOO-COND": IspModel(
        "ZOO-COND",
        2.5e6,
        0.5,
        0.050,
        shaper="conditional",
        shaper_params=(("trigger_bytes", 8e6),),
    ),
}


def isp_model(isp_name):
    """Look up an ISP model across the Table-1 five and the zoo."""
    model = WILD_ISPS.get(isp_name) or ZOO_ISPS.get(isp_name)
    if model is None:
        known = ", ".join([*WILD_ISPS, *ZOO_ISPS])
        raise KeyError(f"unknown ISP {isp_name!r} (known: {known})")
    return model


class DelayedTriggerClassifier:
    """Classifier that starts throttling after a data-volume criterion.

    Counts targeted-service bytes; packets are sent to the TBF only
    once the cumulative volume passes the trigger.  This reproduces
    ISP5's "fixed-rate throttling kicks in after some criterion is met"
    behaviour (Section 5).
    """

    def __init__(self, trigger_bytes):
        self.trigger_bytes = trigger_bytes
        self.seen_bytes = 0.0
        self.tripped = trigger_bytes <= 0

    def __call__(self, packet):
        if packet.dscp != 1:
            return False
        if not self.tripped:
            self.seen_bytes += packet.size
            if self.seen_bytes >= self.trigger_bytes:
                self.tripped = True
        return self.tripped


class _IspEnvironment(_Environment):
    """One simulator instance wired per a wild ISP model.

    ``service`` (a :class:`WildReplayService`) stands in for the
    scenario config: it supplies the ``duration`` and ``fidelity`` that
    :meth:`_Environment.run` and the replays read.
    """

    def __init__(self, service):
        self.config = service
        isp = service.isp
        self.sim = Simulator()
        children = service._seed_seq.spawn(3)
        rng_bg = np.random.default_rng(children[0])
        rng_trigger = np.random.default_rng(children[1])
        self.ack_jitter = AckJitter(np.random.default_rng(children[2]))
        config = TopologyConfig(
            common_bandwidth_bps=100e6,
            rtt_1=isp.rtt,
            rtt_2=isp.rtt * 1.1,
            limiter="common",
            limiter_rate_bps=isp.throttle_rate_bps,
            queue_factor=isp.queue_factor,
            extra_server_rtts=(isp.rtt * 1.2,),
            fidelity=service.fidelity,
            shaper=isp.shaper,
            shaper_params=tuple(isp.shaper_params),
            shaper_seed=service.seed,
        )
        self.topology = FigureOneTopology(self.sim, config)
        if isp.trigger_bytes is not None:
            jitter = 1.0 + isp.trigger_jitter * float(rng_trigger.uniform(-1.0, 1.0))
            self.topology.link_c.qdisc.classifier = DelayedTriggerClassifier(
                isp.trigger_bytes * jitter
            )
        # Light non-targeted background; it shares links but not the
        # per-client policer (dscp1_fraction = 0).
        _poisson_background(
            self.sim,
            rng_bg,
            [self.topology.link_1, self.topology.link_c],
            4e6,
            service.fidelity,
            dscp1_fraction=0.0,
            stop_at=WARMUP + service.duration + DRAIN,
        )

    def loss_estimator(self):
        return RetransmissionLossEstimator()


class WildReplayService(OverlappedReplays):
    """Replay service over a wild-ISP model.

    Parameters:
        isp: an :class:`IspModel`.
        app: replayed application name.
        seed: experiment seed.
        sanity_check: when True, a third server replays the original
            trace concurrently during original simultaneous replays.
        fidelity: ``"packet"`` simulates the non-targeted background
            per packet; ``"hybrid"`` replaces it with the calibrated
            fluid model of :mod:`repro.netsim.fluid`.
    """

    def __init__(
        self, isp, app, seed=0, duration=45.0, sanity_check=False, fidelity="packet"
    ):
        self.isp = isp
        self.app = app
        self.seed = seed
        self.duration = duration
        self.sanity_check = sanity_check
        self.fidelity = fidelity
        # CRC-32, not hash(): str hashes are salted per process, and a
        # wild test must replay identically in every process.
        self._seed_seq = np.random.SeedSequence([zlib.crc32(isp.name.encode()), seed])
        self._trace_rng = np.random.default_rng(self._seed_seq.spawn(1)[0])
        self.modified = True

    def _new_environment(self):
        return _IspEnvironment(self)


_TDIFF_CACHE = {}


def default_tdiff(seed=1234):
    """A cached T_diff sample set from the synthetic historical corpus."""
    if seed not in _TDIFF_CACHE:
        corpus = generate_corpus(np.random.default_rng(seed))
        _TDIFF_CACHE[seed] = tdiff_distribution(corpus)
    return _TDIFF_CACHE[seed]


def run_wild_test(
    isp_name, app="netflix", seed=0, sanity_check=False, fidelity="packet", tdiff=None
):
    """One Section-5 test; returns the localizer's report.

    Basic tests should localize (per-client throttling); sanity-check
    tests should not.
    """
    isp = isp_model(isp_name)
    service = WildReplayService(
        isp, app, seed=seed, sanity_check=sanity_check, fidelity=fidelity
    )
    rng = np.random.default_rng(np.random.SeedSequence([seed, 77]))
    localizer = WeHeYLocalizer(
        rng,
        tdiff if tdiff is not None else default_tdiff(),
        skip_loss_correlation=True,
    )
    original = make_trace(app, service.duration, service._trace_rng)
    return localizer.localize(service, original, traces.bit_invert(original))


def _wild_cell(cell, sanity_check, fidelity):
    """One wild-sweep cell ``(isp, app, seed)`` as a summary dict."""
    isp_name, app, seed = cell
    report = run_wild_test(
        isp_name, app=app, seed=seed, sanity_check=sanity_check, fidelity=fidelity
    )
    return {
        "isp": isp_name,
        "app": app,
        "seed": seed,
        "localized": report.localized,
        "outcome": report.outcome.value,
        "mechanism": report.mechanism.value,
    }
