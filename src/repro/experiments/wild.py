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
"""

import gc
import zlib
from dataclasses import dataclass

import numpy as np

from repro.core.localizer import WeHeYLocalizer
from repro.experiments.runner import (
    DRAIN,
    WARMUP,
    OverlappedReplays,
    SimultaneousRunResult,
    _prepare_trace,
)
from repro.netsim.background import CountingSink, ModulatedPoissonBackground
from repro.netsim.engine import Simulator
from repro.netsim.fluid import FluidPoissonBackground, harvest_fluid
from repro.netsim.path import Path
from repro.netsim.topology import FigureOneTopology, TopologyConfig
from repro.obs import harvest_topology
from repro.obs import metrics as _obs
from repro.wehe.apps import make_trace
from repro.wehe.corpus import generate_corpus, tdiff_distribution
from repro.wehe.replay import AckJitter, attach_replay


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
        # Free the previous replay's environment now, not whenever the
        # cyclic collector next runs (see NetsimReplayService).
        self.last_single_handle = None
        self.last_simultaneous_handles = None
        gc.collect()
        sim = Simulator()
        children = self._seed_seq.spawn(3)
        rng_bg = np.random.default_rng(children[0])
        rng_trigger = np.random.default_rng(children[1])
        ack_jitter = AckJitter(np.random.default_rng(children[2]))
        config = TopologyConfig(
            common_bandwidth_bps=100e6,
            rtt_1=self.isp.rtt,
            rtt_2=self.isp.rtt * 1.1,
            limiter="common",
            limiter_rate_bps=self.isp.throttle_rate_bps,
            queue_factor=self.isp.queue_factor,
            extra_server_rtts=(self.isp.rtt * 1.2,),
            fidelity=self.fidelity,
            shaper=self.isp.shaper,
            shaper_params=tuple(self.isp.shaper_params),
            shaper_seed=self.seed,
        )
        topology = FigureOneTopology(sim, config)
        if self.isp.trigger_bytes is not None:
            jitter = 1.0 + self.isp.trigger_jitter * float(
                rng_trigger.uniform(-1.0, 1.0)
            )
            topology.link_c.qdisc.classifier = DelayedTriggerClassifier(
                self.isp.trigger_bytes * jitter
            )
        # Light non-targeted background; it shares links but not the
        # per-client policer (dscp1_fraction = 0).
        if self.fidelity == "hybrid":
            FluidPoissonBackground(
                sim,
                rng_bg,
                [topology.link_1, topology.link_c],
                4e6,
                dscp1_fraction=0.0,
                stop_at=WARMUP + self.duration + DRAIN,
            )
        else:
            ModulatedPoissonBackground(
                sim,
                rng_bg,
                Path([topology.link_1, topology.link_c], CountingSink()),
                4e6,
                dscp1_fraction=0.0,
                stop_at=WARMUP + self.duration + DRAIN,
            )
        return sim, topology, ack_jitter

    def _run(self, sim, topology):
        elapsed = WARMUP + self.duration + DRAIN
        sim.run(until=elapsed)
        if _obs.ENABLED:
            harvest_topology(_obs.SINK, topology, elapsed)
            if self.fidelity == "hybrid":
                harvest_fluid(_obs.SINK, topology)

    def _setup_single(self, trace):
        sim, topology, ack_jitter = self._new_environment()
        trace = _prepare_trace(trace, self._trace_rng, self.modified)
        handle = attach_replay(
            sim, topology, 1, trace, start_at=WARMUP, duration=self.duration,
            ack_jitter=ack_jitter,
        )
        return sim, topology, handle

    def _run_single(self, setup):
        sim, topology, handle = setup
        self._run(sim, topology)
        self.last_single_handle = handle
        return handle.throughput_samples()

    def _setup_simultaneous(self, trace):
        sim, topology, ack_jitter = self._new_environment()
        offset = float(self._trace_rng.uniform(0.02, 0.1))
        handles = []
        for which, start in ((1, WARMUP), (2, WARMUP + offset)):
            prepared = _prepare_trace(trace, self._trace_rng, self.modified)
            handles.append(
                attach_replay(
                    sim, topology, which, prepared,
                    start_at=start, duration=self.duration,
                    ack_jitter=ack_jitter,
                )
            )
        if self.sanity_check and trace.is_original:
            third = _prepare_trace(trace, self._trace_rng, self.modified)
            attach_replay(
                sim, topology, 3, third,
                start_at=WARMUP + 2 * offset, duration=self.duration,
                ack_jitter=ack_jitter,
            )
        return sim, topology, handles

    def _run_simultaneous(self, setup):
        sim, topology, handles = setup
        self._run(sim, topology)
        h1, h2 = handles
        self.last_simultaneous_handles = handles
        return SimultaneousRunResult(
            samples_1=h1.throughput_samples(),
            samples_2=h2.throughput_samples(),
            measurements_1=h1.path_measurements(),
            measurements_2=h2.path_measurements(),
            retx_rate_1=h1.retransmission_rate(),
            retx_rate_2=h2.retransmission_rate(),
            queuing_delay_1=h1.queuing_delay(),
            queuing_delay_2=h2.queuing_delay(),
            mean_throughput_1=h1.mean_throughput(),
            mean_throughput_2=h2.mean_throughput(),
        )


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
    from repro.wehe.traces import bit_invert

    return localizer.localize(service, original, bit_invert(original))


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
