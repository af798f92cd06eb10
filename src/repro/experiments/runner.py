"""Experiment runner: scenarios -> simulator instances -> measurements.

``NetsimReplayService`` adapts a :class:`ScenarioConfig` to the replay
interface :class:`~repro.core.localizer.WeHeYLocalizer` expects: every
replay builds a *fresh* simulator (fresh background randomness -- the
replays happen at different wall-clock times, like real WeHe tests),
with the same topology and rate-limiter configuration (it is the same
ISP device across replays).  The replays are defined once, in
:class:`OverlappedReplays`, for scenario and wild services alike: a
service only builds the network (``_new_environment``), and a verdict's
three replays run on two processes when they can.

``run_detection_experiment`` is the cheaper harness behind the
Section-6 claims: it runs only the original-trace simultaneous
replay and applies the common-bottleneck detectors directly, which is
what the paper's FN/FP metrics are defined on.
"""

import gc
import os
import pickle
import signal
from dataclasses import dataclass, field

import numpy as np

from repro.core.localizer import SimultaneousReplayResult, serial_replays
from repro.core.loss_correlation import LossTrendCorrelation
from repro.experiments.scenarios import ScenarioConfig
from repro.faults import FaultInjector, FaultSite, ReplayAbortedError, maybe_fire
from repro.netsim.background import ModulatedPoissonBackground, TcpBackgroundPool
from repro.netsim.engine import _STATS, Simulator
from repro.netsim.fluid import (
    FluidPoissonBackground,
    FluidTcpBackground,
    harvest_fluid,
)
from repro.netsim.path import Path
from repro.obs import harvest_topology
from repro.obs import metrics as _obs
from repro.netsim.topology import FigureOneTopology, TopologyConfig
from repro.wehe.apps import make_trace
from repro.wehe.loss_measurement import RetransmissionLossEstimator
from repro.wehe.replay import AckJitter, attach_replay
from repro.wehe.traces import poissonize

#: Seconds of background warm-up before replays start.
WARMUP = 1.0
#: Seconds of drain after replays stop.
DRAIN = 1.0


def _poisson_background(sim, rng, links, rate_bps, fidelity, **kwargs):
    """Open-loop Poisson background over ``links``: the fluid model at
    ``hybrid`` fidelity, one packet at a time otherwise."""
    if fidelity == "hybrid":
        return FluidPoissonBackground(sim, rng, links, rate_bps, **kwargs)
    return ModulatedPoissonBackground(sim, rng, Path(links, None), rate_bps, **kwargs)


class _Environment:
    """One simulator instance wired per the scenario.

    A replay reads its ``sim``, ``topology`` and ``ack_jitter`` and calls
    :meth:`run` and :meth:`loss_estimator`; ``config`` supplies the
    ``duration`` and ``fidelity`` they use.
    """

    def __init__(self, config, seed_seq):
        self.config = config
        self.sim = Simulator()
        children = seed_seq.spawn(6)
        self.rngs = [np.random.default_rng(s) for s in children]

        topo_config = TopologyConfig(
            common_bandwidth_bps=100e6,
            rtt_1=config.rtt_1,
            rtt_2=config.rtt_2,
            limiter=config.limiter,
            limiter_rate_bps=config.limiter_rate_bps,
            queue_factor=config.queue_factor,
            noncommon_bandwidth_bps=config.noncommon_bandwidth_bps,
            fidelity=config.fidelity,
            shaper=config.shaper,
            shaper_params=config.shaper_params,
            # Seeded mechanisms (RED/PIE draws) derive their device
            # seeds from the scenario seed, so a cell's shaper behaviour
            # depends only on the cell.
            shaper_seed=config.seed,
            # ECMP bundle knobs; the hash seed also derives from the
            # scenario seed, so member assignment is a cell property.
            multipath=config.multipath,
            flowlet_gap_s=config.flowlet_gap_s,
            multipath_shaped=config.multipath_shaped,
            multipath_seed=config.seed,
        )
        self.topology = FigureOneTopology(self.sim, topo_config)
        #: Shared by every replay in this environment.
        self.ack_jitter = AckJitter(self.rngs[5])
        self._attach_background()

    def _attach_background(self):
        config = self.config
        hybrid = config.fidelity == "hybrid"
        stop = WARMUP + config.duration + DRAIN
        for which, rng_udp, rng_tcp in (
            (1, self.rngs[0], self.rngs[2]),
            (2, self.rngs[1], self.rngs[3]),
        ):
            links = [self.topology.noncommon_links[which - 1], self.topology.link_c]
            # The marked (same-service) share must reach the limiter in
            # full; the unmarked remainder only loads the FIFO class and
            # links, so simulating it beyond a few Mb/s per side buys
            # nothing but event count -- cap it.
            marked = config.background_share * config.background_rate_bps / 2.0
            unmarked = min(
                (1.0 - config.background_share) * config.background_rate_bps / 2.0,
                4e6,
            )
            side_rate = marked + unmarked
            _poisson_background(
                self.sim,
                rng_udp,
                links,
                side_rate,
                config.fidelity,
                dscp1_fraction=marked / side_rate if side_rate > 0 else 0.0,
                modulation=config.background_modulation,
                stop_at=stop,
                flow_id=f"bg-udp-{which}",
            )
            if config.tcp_background_flows > 0:
                tcp_source = FluidTcpBackground if hybrid else TcpBackgroundPool
                tcp_source(
                    self.sim,
                    rng_tcp,
                    links,
                    n_longlived=max(config.tcp_background_flows // 2, 1),
                    short_flow_rate=0.5,
                    dscp1_fraction=config.background_share,
                    stop_at=stop,
                    flow_prefix=f"bg-tcp-{which}",
                )

    def run(self):
        elapsed = WARMUP + self.config.duration + DRAIN
        self.sim.run(until=elapsed)
        if _obs.ENABLED:
            # Aggregates (utilization, occupancy, delay) come from the
            # statistics the simulator keeps anyway -- one harvest per
            # run, zero per-packet cost.
            harvest_topology(_obs.SINK, self.topology, elapsed)
            if self.config.fidelity == "hybrid":
                harvest_fluid(_obs.SINK, self.topology)

    def loss_estimator(self):
        config = self.config
        if config.overcount_rate > 0 or config.registration_jitter > 0:
            return RetransmissionLossEstimator(
                config.overcount_rate, config.registration_jitter, self.rngs[4]
            )
        return RetransmissionLossEstimator()


class SimultaneousRunResult(SimultaneousReplayResult):
    """Simultaneous-replay outputs plus the per-path health metrics
    used by Figures 5 and 7."""

    def __init__(
        self,
        samples_1,
        samples_2,
        measurements_1,
        measurements_2,
        retx_rate_1=0.0,
        retx_rate_2=0.0,
        queuing_delay_1=0.0,
        queuing_delay_2=0.0,
        mean_throughput_1=0.0,
        mean_throughput_2=0.0,
    ):
        super().__init__(samples_1, samples_2, measurements_1, measurements_2)
        self.retx_rate_1 = retx_rate_1
        self.retx_rate_2 = retx_rate_2
        self.queuing_delay_1 = queuing_delay_1
        self.queuing_delay_2 = queuing_delay_2
        self.mean_throughput_1 = mean_throughput_1
        self.mean_throughput_2 = mean_throughput_2

    @property
    def mean_retx_rate(self):
        return (self.retx_rate_1 + self.retx_rate_2) / 2.0

    @property
    def mean_queuing_delay(self):
        return (self.queuing_delay_1 + self.queuing_delay_2) / 2.0


def _prepare_trace(trace, rng, modified):
    """Apply WeHeY's Section-3.4 modifications (or not, for ablations)."""
    if modified and trace.protocol == "udp":
        return poissonize(trace, rng)
    return trace


class OverlappedReplays:
    """A verdict's three replays, the first two beside the third.

    A service supplies ``_new_environment()`` -- the network a replay
    runs on, shaped like :class:`_Environment` -- plus ``_trace_rng`` and
    ``modified``; every replay is defined here, once.  Each replay splits
    into a set-up (``_setup_single`` and ``_setup_simultaneous``: every
    draw, a fresh environment, the attached replays) and a run
    (``_run_single`` and ``_run_simultaneous``: the simulation and its
    results).  A run reads no other replay's state, so only the set-ups
    must keep their order.

    :meth:`replays` takes the single and the original set-up in that
    order, forks one child that runs both and pipes their results back,
    and meanwhile runs the inverted replay in this process.  It stays
    serial with one job, without ``fork``, with metrics on (they belong
    to the process that owns the sink), and with a fault injector (its
    draws depend on which replays ran).
    """

    fault_injector = None
    merge_flows = False
    #: When True, a third server replays the original trace beside every
    #: original simultaneous replay (the wild sanity check).
    sanity_check = False
    # The last replay's objects, for callers that need raw capture
    # access after the run (the shaper fingerprinter reads windowed
    # loss/mark series the summary statistics throw away).
    last_environment = None
    last_single_handle = None
    last_simultaneous_handles = None

    def single_replay(self, trace):
        """WeHe's p0 replay; returns its throughput samples."""
        return self._run_single(self._setup_single(trace))

    def simultaneous_replay(self, trace):
        """Replay ``trace`` on p1 and p2; returns a :class:`SimultaneousRunResult`."""
        return self._run_simultaneous(self._setup_simultaneous(trace))

    def replays(self, original, inverted):
        """The single, original and inverted results, in that order."""
        # Imported here so that importing the localizer loads no new module.
        from repro.jobs import default_jobs, fork_available

        if (
            default_jobs() < 2
            or not fork_available()
            or _obs.ENABLED
            or self.fault_injector is not None
        ):
            return serial_replays(self, original, inverted)
        return self._overlapped(original, inverted)

    def _overlapped(self, original, inverted):
        jobs = [
            (self._run_single, self._setup_single(original)),
            (self._run_simultaneous, self._setup_simultaneous(original)),
        ]
        read_fd, write_fd = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            # No child to be had (EAGAIN, ENOMEM): run the set-ups here.
            os.close(read_fd)
            os.close(write_fd)
            while jobs:
                run, setup = jobs.pop(0)
                yield run(setup)
            del run, setup
            yield self.simultaneous_replay(inverted)
            return
        if pid == 0:
            os.close(read_fd)
            _replay_child(write_fd, jobs)
        os.close(write_fd)
        # The inverted set-up collects the child's environments once no
        # reference holds them, so this process never holds three.
        del jobs
        try:
            with os.fdopen(read_fd, "rb") as pipe:
                start = _STATS["events"]
                error = None
                try:
                    inverted_result = self.simultaneous_replay(inverted)
                except Exception as exc:
                    error = exc
                # Its events are booked when it is consumed, as in the
                # serial schedule.
                events = _STATS["events"] - start
                _STATS["events"] = start
                yield _receive(pipe)
                yield _receive(pipe)
            _STATS["events"] += events
            if error is not None:
                raise error
            yield inverted_result
        finally:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)

    def _environment(self):
        """Retire the last replay's environment, then build a fresh one."""
        # An environment is a reference cycle (sender -> path -> receiver
        # -> reverse path -> sender), so only the cyclic collector frees
        # it; left to the collector's own schedule, dead environments
        # pile up and set peak memory.
        self.last_environment = None
        self.last_single_handle = None
        self.last_simultaneous_handles = None
        gc.collect()
        return self._new_environment()

    def _setup_single(self, trace):
        if maybe_fire(self.fault_injector, FaultSite.REPLAY_ABORT):
            raise ReplayAbortedError("single replay aborted")
        env = self._environment()
        trace = _prepare_trace(trace, self._trace_rng, self.modified)
        handle = attach_replay(
            env.sim,
            env.topology,
            1,
            trace,
            start_at=WARMUP,
            duration=env.config.duration,
            ack_jitter=env.ack_jitter,
        )
        return env, handle

    def _run_single(self, setup):
        env, handle = setup
        env.run()
        self.last_environment = env
        self.last_single_handle = handle
        samples = handle.throughput_samples()
        if maybe_fire(self.fault_injector, FaultSite.TRUNCATED_SAMPLES):
            samples = self.fault_injector.truncate_samples(samples)
        return samples

    def _setup_simultaneous(self, trace):
        if maybe_fire(self.fault_injector, FaultSite.REPLAY_ABORT):
            raise ReplayAbortedError("simultaneous replay aborted")
        env = self._environment()
        duration = env.config.duration
        # Starts are only back-to-back client commands (Section 3.4), so
        # the second replay begins a command-latency later -- drawn
        # between 20 and 100 ms, covering the RTT/startup spread of real
        # server pairs.
        offset = float(self._trace_rng.uniform(0.02, 0.1))
        handles = []
        merged_id = f"replay-{trace.app}-merged" if self.merge_flows else None
        for which, start in ((1, WARMUP), (2, WARMUP + offset)):
            prepared = _prepare_trace(trace, self._trace_rng, self.modified)
            handle = attach_replay(
                env.sim,
                env.topology,
                which,
                prepared,
                start_at=start,
                duration=duration,
                flow_id=merged_id,
                ack_jitter=env.ack_jitter,
            )
            if prepared.protocol == "tcp":
                handle.sender.pacing = self.modified
            handles.append(handle)
        if self.sanity_check and trace.is_original:
            third = _prepare_trace(trace, self._trace_rng, self.modified)
            attach_replay(
                env.sim,
                env.topology,
                3,
                third,
                start_at=WARMUP + 2 * offset,
                duration=duration,
                ack_jitter=env.ack_jitter,
            )
        return env, handles

    def _run_simultaneous(self, setup):
        env, handles = setup
        env.run()
        self.last_environment = env
        self.last_simultaneous_handles = handles
        estimator = env.loss_estimator()
        h1, h2 = handles
        result = SimultaneousRunResult(
            samples_1=h1.throughput_samples(),
            samples_2=h2.throughput_samples(),
            measurements_1=h1.path_measurements(estimator),
            measurements_2=h2.path_measurements(estimator),
            retx_rate_1=h1.retransmission_rate(),
            retx_rate_2=h2.retransmission_rate(),
            queuing_delay_1=h1.queuing_delay(),
            queuing_delay_2=h2.queuing_delay(),
            mean_throughput_1=h1.mean_throughput(),
            mean_throughput_2=h2.mean_throughput(),
        )
        injector = self.fault_injector
        if maybe_fire(injector, FaultSite.TRUNCATED_SAMPLES):
            result.samples_1 = injector.truncate_samples(result.samples_1)
            result.samples_2 = injector.truncate_samples(result.samples_2)
        if maybe_fire(injector, FaultSite.CORRUPT_LOSS):
            injector.corrupt_measurements(result.measurements_1)
            injector.corrupt_measurements(result.measurements_2)
        return result


def _replay_child(write_fd, jobs):
    """Forked child: run each ``(run, setup)`` job and pickle its outcome.

    Each outcome is ``(result, exception, events)``; the child stops at
    the first exception and never returns.
    """
    try:
        with os.fdopen(write_fd, "wb") as pipe:
            for run, setup in jobs:
                events = _STATS["events"]
                result = error = None
                try:
                    result = run(setup)
                except Exception as exc:
                    error = exc
                pickle.dump((result, error, _STATS["events"] - events), pipe)
                pipe.flush()
                if error is not None:
                    break
    finally:
        os._exit(0)


def _receive(pipe):
    """The child's next result; re-raises the exception it sent instead."""
    try:
        result, error, events = pickle.load(pipe)
    except EOFError:
        raise ChildProcessError("replay child exited without a result") from None
    _STATS["events"] += events
    if error is not None:
        raise error
    return result


class NetsimReplayService(OverlappedReplays):
    """Replay service over the simulator for one scenario.

    ``fault_injector`` (a :class:`~repro.faults.FaultInjector`) makes
    the service fail the way real WeHe servers do: replays abort before
    delivering data, sample series arrive truncated, and loss logs
    arrive corrupted.  Aborts raise :class:`ReplayAbortedError` *before*
    the simulator is built (the test never ran); truncation and
    corruption damage otherwise-complete results.
    """

    def __init__(self, config, entropy=0, merge_flows=False, fault_injector=None,
                 replay_ports=None):
        self.config = config
        self._seed_seq = np.random.SeedSequence([config.seed, entropy])
        self._trace_rng = np.random.default_rng(self._seed_seq.spawn(1)[0])
        self.modified = True
        self.fault_injector = fault_injector
        # Section 7's remedy for per-flow throttling: make the two
        # simultaneous replays appear to belong to the same flow, so a
        # per-flow policer assigns them the same bucket.
        self.merge_flows = merge_flows
        # The multipath counterpart of merge_flows: client-chosen
        # ephemeral source ports, one per path.  An ECMP common device
        # hashes the replay five-tuples, so re-drawing these ports
        # (the coordinator's re-hash recovery) re-rolls which member
        # each replay lands on.  None keeps the derived default tuples.
        self.replay_ports = replay_ports

    def _new_environment(self):
        env = _Environment(self.config, self._seed_seq.spawn(1)[0])
        self._register_ports(env)
        return env

    def _register_ports(self, env):
        """Pin the replay flows' five-tuples on a multipath common device."""
        if self.replay_ports is None:
            return
        register = getattr(env.topology.link_c, "register_flow", None)
        if register is None:
            return
        app = self.config.app
        proto = self.config.protocol
        for which, sport in zip((1, 2), self.replay_ports):
            for suffix in ("orig", "inv"):
                register(f"replay-{app}-{which}-{suffix}", sport, proto=proto)
        if self.merge_flows:
            register(f"replay-{app}-merged", self.replay_ports[0], proto=proto)


@dataclass(frozen=True)
class DetectionExperimentRecord:
    """One Section-6 experiment: detector verdicts plus health metrics.

    Frozen so records can cross process boundaries (the parallel sweep
    executor returns them from worker processes) without any risk of a
    consumer mutating shared state; ``status`` is ``"ok"`` for a
    completed cell and ``"aborted"`` when fault injection killed the
    replay before it produced measurements.
    """

    config: ScenarioConfig
    verdicts: dict = field(default_factory=dict)
    retx_rate: float = 0.0
    queuing_delay: float = 0.0
    loss_rate_1: float = 0.0
    loss_rate_2: float = 0.0
    differentiation_visible: bool = True
    status: str = "ok"

    def verdict(self, name):
        return self.verdicts[name]

    @property
    def aborted(self):
        return self.status == "aborted"


#: Below this per-path loss rate WeHe would likely not have flagged the
#: test (the paper excluded 41/360 such runs); see EXPERIMENTS.md.
MIN_VISIBLE_LOSS_RATE = 0.003


def run_detection_experiment(
    config,
    detectors=None,
    modified=True,
    entropy=0,
    merge_flows=False,
    fault_profile=None,
):
    """Run one FN/FP experiment cell.

    Generates the app's original trace, runs the original-trace
    simultaneous replay, and applies each detector to the resulting
    path measurements.  ``detectors`` maps name -> object with a
    ``detect(m1, m2)`` method (default: Algorithm 1); pass
    ``modified=False`` to replay unmodified traces (Figure 6's
    ablation).

    ``fault_profile`` (a spec string or :class:`~repro.faults.FaultProfile`)
    injects failures seeded from ``config.seed``, so the fault schedule
    of a cell depends only on the cell -- never on how many other cells
    ran before it or on which worker process it landed in.  An aborted
    replay returns a record with ``status="aborted"`` instead of
    raising, which keeps sweep result streams aligned with their
    config streams.
    """
    if detectors is None:
        detectors = {"loss_trend": LossTrendCorrelation()}
    injector = None
    if fault_profile is not None:
        if isinstance(fault_profile, str):
            injector = FaultInjector.from_spec(fault_profile, seed=config.seed)
        else:
            injector = FaultInjector(fault_profile, seed=config.seed)
    service = NetsimReplayService(
        config, entropy=entropy, merge_flows=merge_flows, fault_injector=injector
    )
    service.modified = modified
    trace = make_trace(config.app, config.duration, service._trace_rng)
    try:
        result = service.simultaneous_replay(trace)
    except ReplayAbortedError:
        if _obs.ENABLED:
            _obs.SINK.inc("runner.cells_aborted")
        return DetectionExperimentRecord(
            config=config,
            verdicts={},
            differentiation_visible=False,
            status="aborted",
        )

    verdicts = {}
    for name, detector in detectors.items():
        outcome = detector.detect(result.measurements_1, result.measurements_2)
        verdicts[name] = (
            outcome.common_bottleneck
            if hasattr(outcome, "common_bottleneck")
            else bool(outcome)
        )
    loss_1 = result.measurements_1.loss_rate
    loss_2 = result.measurements_2.loss_rate
    if _obs.ENABLED:
        _obs.SINK.inc("runner.cells_completed")
    return DetectionExperimentRecord(
        config=config,
        verdicts=verdicts,
        retx_rate=result.mean_retx_rate,
        queuing_delay=result.mean_queuing_delay,
        loss_rate_1=loss_1,
        loss_rate_2=loss_2,
        differentiation_visible=min(loss_1, loss_2) >= MIN_VISIBLE_LOSS_RATE,
    )
