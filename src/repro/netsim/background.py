"""Background (cross) traffic.

The paper replays CAIDA equinix-chicago segments behind its rate
limiters: an aggregate with heavy-tailed flows whose arrival rate
fluctuates on the timescale of seconds.  Those fluctuations are what
make the loss rate of a shared bottleneck *trend* over time -- the very
signal Algorithm 1 correlates.  We reproduce the two properties that
matter:

- ``ModulatedPoissonBackground``: a UDP aggregate whose instantaneous
  rate follows a mean-reverting log-AR(1) process (seconds-scale trend),
  with CAIDA-like packet-size mixture, a fraction of which is marked
  ``dscp=1`` (same-service traffic competing inside the rate limiter);
- ``TcpBackgroundPool``: long-lived plus Poisson-arriving short TCP
  flows with Pareto sizes, adding realistic congestion-controlled
  dynamics.

Every generator takes its own ``numpy.random.Generator`` so that two
instances are statistically independent -- the false-positive
experiments (identical limiters on the two non-common links) depend on
this.
"""

from bisect import bisect_right as _bisect_right

import numpy as np

from repro.netsim.packet import DATA, Packet
from repro.netsim.path import DirectPath, Path
from repro.netsim.tcp import TcpReceiver, TcpSender

#: CAIDA-like packet-size mixture (bytes, probability).
PACKET_SIZE_MIX = ((1500, 0.55), (576, 0.25), (72, 0.20))


#: Default multi-timescale modulation: (update period s, stationary sigma,
#: AR(1) rho per period).  Superposing components at sub-second, seconds
#: and tens-of-seconds scales approximates the long-range-dependent rate
#: fluctuations of CAIDA traffic -- the common bottleneck's loss rate then
#: trends at every interval size Algorithm 1 sweeps.
DEFAULT_MODULATION = (
    (0.2, 0.3, 0.8),
    (1.0, 0.35, 0.85),
    (5.0, 0.35, 0.9),
)


class _Ar1Component:
    """One log-rate AR(1) component of the modulation process."""

    __slots__ = ("period", "sigma", "rho", "state")

    def __init__(self, period, sigma, rho, rng):
        self.period = period
        self.sigma = sigma
        self.rho = rho
        self.state = rng.normal(0.0, sigma)

    def step(self, rng):
        innovation = rng.normal(0.0, self.sigma * np.sqrt(1.0 - self.rho**2))
        self.state = self.rho * self.state + innovation


class ModulatedPoissonBackground:
    """UDP aggregate with multi-timescale modulated Poisson arrivals.

    The log-rate is a sum of independent AR(1) components at different
    timescales (see :data:`DEFAULT_MODULATION`), giving the aggregate
    CAIDA-like slow *and* fast rate fluctuations.

    Parameters:
        sim: simulator.
        rng: private ``numpy.random.Generator``.
        path: forward path the aggregate traverses.
        mean_rate_bps: long-run average rate.
        dscp1_fraction: probability a packet is marked for throttling.
        modulation: tuple of ``(period, sigma, rho)`` components.
    """

    def __init__(
        self,
        sim,
        rng,
        path,
        mean_rate_bps,
        dscp1_fraction=0.5,
        modulation=None,
        start_at=0.0,
        stop_at=None,
        flow_id="bg-udp",
    ):
        if mean_rate_bps <= 0:
            raise ValueError("background rate must be positive")
        if not 0.0 <= dscp1_fraction <= 1.0:
            raise ValueError("dscp1_fraction must be in [0, 1]")
        self.sim = sim
        self.rng = rng
        self.path = path
        self.mean_rate_bps = mean_rate_bps
        self.dscp1_fraction = dscp1_fraction
        self.stop_at = stop_at
        self.flow_id = flow_id
        self.packets_sent = 0

        sizes, probs = zip(*PACKET_SIZE_MIX)
        self._sizes = sizes
        probs = np.array(probs)
        self._mean_size = float(np.dot(sizes, probs))
        # Precomputed CDF: ``bisect_right`` over one uniform is
        # bit-identical to ``rng.choice(sizes, p=probs)`` (same stream
        # consumption, same float64 bounds) at a fraction of the per-call
        # overhead; a Python list bisects faster than
        # ``ndarray.searchsorted`` dispatches.
        cdf = probs.cumsum()
        cdf /= cdf[-1]
        self._size_cdf = cdf.tolist()
        if modulation is None:
            modulation = DEFAULT_MODULATION
        self._components = [
            _Ar1Component(period, sigma, rho, rng)
            for period, sigma, rho in modulation
        ]
        self._total_variance = sum(c.sigma**2 for c in self._components)
        self._seq = 0
        # The modulation state only changes at remodulation ticks, so the
        # instantaneous rate is cached there instead of being recomputed
        # (a Python sum plus an exp) for every generated packet.
        self._cached_rate_bps = self._compute_rate_bps()
        for component in self._components:
            sim.schedule_at(start_at, self._remodulate, component)
        sim.schedule_at(start_at, self._send_next)

    def _compute_rate_bps(self):
        log_x = sum(c.state for c in self._components)
        # Subtracting half the total variance keeps the mean rate at 1x.
        return self.mean_rate_bps * float(np.exp(log_x - self._total_variance / 2.0))

    def current_rate_bps(self):
        """Instantaneous target rate given the modulation state."""
        return self._cached_rate_bps

    def _remodulate(self, component):
        if self.stop_at is not None and self.sim.now >= self.stop_at:
            return
        component.step(self.rng)
        self._cached_rate_bps = self._compute_rate_bps()
        self.sim.schedule(component.period, self._remodulate, component)

    def _send_next(self):
        sim = self.sim
        now = sim._now
        if self.stop_at is not None and now >= self.stop_at:
            return
        rng = self.rng
        rate_pps = self._cached_rate_bps / (8.0 * self._mean_size)
        gap = rng.exponential(1.0 / rate_pps)
        size = self._sizes[_bisect_right(self._size_cdf, rng.random())]
        dscp = 1 if rng.random() < self.dscp1_fraction else 0
        packet = Packet(self.flow_id, DATA, self._seq, size, dscp, now)
        self._seq += 1
        self.packets_sent += 1
        self.path.inject(packet)
        sim.schedule(gap, self._send_next)


class SteadyAppSource:
    """Constant-rate application source for long-lived TCP flows.

    Long-lived flows in real traffic mixes (video, large syncs) are
    application-paced, not greedy bulk transfers; modelling them this
    way keeps them from starving everything else at a shared policer.
    """

    def __init__(self, rate_bps, start_at=0.0, chunk_bytes=16_000):
        if rate_bps <= 0:
            raise ValueError("rate must be positive")
        self.rate_bps = rate_bps
        self.start_at = start_at
        self.chunk_bytes = chunk_bytes

    def available_bytes(self, now):
        elapsed = max(0.0, now - self.start_at)
        # Data is written in chunks, so availability moves in steps.
        written = elapsed * self.rate_bps / 8.0
        return (written // self.chunk_bytes) * self.chunk_bytes + self.chunk_bytes

    def next_release_after(self, now):
        chunk_interval = self.chunk_bytes * 8.0 / self.rate_bps
        elapsed = max(0.0, now - self.start_at)
        n_chunks = int(elapsed / chunk_interval) + 1
        release = self.start_at + n_chunks * chunk_interval
        # Float rounding must never produce a wake-up in the past or at
        # exactly `now` (that would livelock the sender's wait loop).
        while release <= now + 1e-9:
            release += chunk_interval
        return release


class TcpBackgroundPool:
    """Long-lived and short-lived background TCP flows.

    ``n_longlived`` application-paced flows (rate
    ``longlived_rate_bps`` each) run for the whole experiment; short
    flows arrive Poisson at ``short_flow_rate`` per second with Pareto
    sizes (shape 1.2, scale ``short_flow_min_bytes``).
    ``dscp1_fraction`` of the flows are marked as belonging to the
    throttled service.
    """

    def __init__(
        self,
        sim,
        rng,
        links,
        n_longlived=2,
        longlived_rate_bps=1.5e6,
        short_flow_rate=1.0,
        short_flow_min_bytes=30_000,
        dscp1_fraction=0.5,
        rtt_range=(0.02, 0.08),
        start_at=0.0,
        stop_at=None,
        flow_prefix="bg-tcp",
    ):
        self.sim = sim
        self.rng = rng
        self.links = list(links)
        self.longlived_rate_bps = longlived_rate_bps
        self.short_flow_rate = short_flow_rate
        self.short_flow_min_bytes = short_flow_min_bytes
        self.dscp1_fraction = dscp1_fraction
        self.rtt_range = rtt_range
        self.stop_at = stop_at
        self.flow_prefix = flow_prefix
        self.senders = []
        self._counter = 0

        for _ in range(n_longlived):
            self._spawn(
                total_bytes=None,
                start_at=start_at,
                stop_at=stop_at,
                app_source=SteadyAppSource(longlived_rate_bps, start_at),
            )
        if short_flow_rate > 0:
            sim.schedule_at(
                start_at + rng.exponential(1.0 / short_flow_rate), self._spawn_short
            )

    def _spawn_short(self):
        if self.stop_at is not None and self.sim.now >= self.stop_at:
            return
        # Pareto(shape=1.2): heavy-tailed flow sizes as in CAIDA traffic.
        size = int(self.short_flow_min_bytes * (1.0 + self.rng.pareto(1.2)))
        self._spawn(total_bytes=size, start_at=self.sim.now, stop_at=self.stop_at)
        self.sim.schedule(
            self.rng.exponential(1.0 / self.short_flow_rate), self._spawn_short
        )

    def _spawn(self, total_bytes, start_at, stop_at, app_source=None):
        self._counter += 1
        flow_id = f"{self.flow_prefix}-{self._counter}"
        dscp = 1 if self.rng.random() < self.dscp1_fraction else 0
        receiver = TcpReceiver(self.sim, flow_id)
        path = Path(self.links, receiver)
        rtt = self.rng.uniform(*self.rtt_range)
        reverse = DirectPath(self.sim, rtt / 2.0, _SenderProxy())
        sender = TcpSender(
            self.sim,
            flow_id,
            path,
            receiver,
            reverse,
            dscp=dscp,
            pacing=False,
            total_bytes=total_bytes,
            start_at=max(start_at, self.sim.now),
            stop_at=stop_at,
            app_source=app_source,
        )
        reverse.sink.sender = sender
        self.senders.append(sender)


class _SenderProxy:
    """Late-bound sink so the reverse path can be built before the sender."""

    def __init__(self):
        self.sender = None

    def receive(self, packet):
        if self.sender is not None:
            self.sender.receive(packet)
