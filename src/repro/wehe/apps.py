"""The WeHe application trace library.

WeHe ships prerecorded traces for popular services; we cannot
redistribute those, so this module generates statistically equivalent
traces per application *class* (the differentiation algorithms only see
packet sizes and timings, never payload bytes):

- video streaming over TCP (Netflix, YouTube, Disney+, Amazon Prime,
  Twitch): chunked downloads -- bursts of MTU-sized packets at the
  content bitrate;
- real-time communication over UDP (Skype, WhatsApp, MS Teams, Zoom,
  Webex): 20-30 ms packetization with talk-spurt on/off behaviour and
  app-specific size mixtures.

Trace parameters are per-app so the UDP false-negative/false-positive
tables can report per-app rows like the paper's Tables 5 and Figure 6.
"""

from dataclasses import dataclass

import numpy as np

from repro.wehe.traces import Trace, memoize


@dataclass(frozen=True)
class AppSpec:
    """Statistical description of one WeHe application."""

    name: str
    protocol: str
    sni: str
    rate_bps: float
    #: (size_bytes, probability) mixture for UDP; MTU payload for TCP.
    packet_sizes: tuple
    #: UDP packetization interval in seconds (mean).
    packet_interval: float = 0.02
    #: probability of being inside a talk spurt (UDP on/off behaviour).
    spurt_on_probability: float = 0.9
    #: mean spurt / gap lengths in seconds.
    spurt_mean_on: float = 3.0
    spurt_mean_off: float = 0.4
    #: TCP chunk period in seconds (video streaming).
    chunk_period: float = 2.0


TCP_MSS_PAYLOAD = 1448

APP_SPECS = {
    "netflix": AppSpec(
        "netflix", "tcp", "nflxvideo.net", 5.0e6, ((TCP_MSS_PAYLOAD, 1.0),)
    ),
    "youtube": AppSpec(
        "youtube", "tcp", "googlevideo.com", 4.5e6, ((TCP_MSS_PAYLOAD, 1.0),)
    ),
    "disneyplus": AppSpec(
        "disneyplus", "tcp", "dssott.com", 5.5e6, ((TCP_MSS_PAYLOAD, 1.0),)
    ),
    "amazonprime": AppSpec(
        "amazonprime", "tcp", "aiv-cdn.net", 4.0e6, ((TCP_MSS_PAYLOAD, 1.0),)
    ),
    "twitch": AppSpec(
        "twitch", "tcp", "ttvnw.net", 3.5e6, ((TCP_MSS_PAYLOAD, 1.0),)
    ),
    "skype": AppSpec(
        "skype",
        "udp",
        "skype.com",
        2.2e6,
        ((1100, 0.55), (640, 0.25), (160, 0.20)),
        packet_interval=0.004,
        spurt_on_probability=0.92,
    ),
    "whatsapp": AppSpec(
        "whatsapp",
        "udp",
        "whatsapp.net",
        1.8e6,
        ((1000, 0.5), (480, 0.3), (120, 0.2)),
        packet_interval=0.004,
        spurt_on_probability=0.88,
    ),
    "msteams": AppSpec(
        "msteams",
        "udp",
        "teams.microsoft.com",
        2.5e6,
        ((1150, 0.6), (700, 0.25), (180, 0.15)),
        packet_interval=0.0035,
        spurt_on_probability=0.94,
    ),
    "zoom": AppSpec(
        "zoom",
        "udp",
        "zoom.us",
        2.8e6,
        ((1200, 0.65), (750, 0.20), (200, 0.15)),
        packet_interval=0.003,
        spurt_on_probability=0.95,
    ),
    "webex": AppSpec(
        "webex",
        "udp",
        "webex.com",
        2.4e6,
        ((1100, 0.6), (620, 0.25), (150, 0.15)),
        packet_interval=0.0035,
        spurt_on_probability=0.93,
    ),
}

TCP_APPS = tuple(name for name, spec in APP_SPECS.items() if spec.protocol == "tcp")
UDP_APPS = tuple(name for name, spec in APP_SPECS.items() if spec.protocol == "udp")


#: Memo of generated traces keyed by (app, duration, rng state).  A
#: replay service seeded from the same ``(seed, entropy)`` pair asks for
#: the same trace with the same generator state every time -- sweeps and
#: benchmark reruns hit the cache instead of re-drawing tens of
#: thousands of packets.  Hits restore the generator to the state it
#: would have had after generation, so cached and uncached runs are
#: bit-identical.  It keeps the last few traces only (see
#: :func:`repro.wehe.traces.memoize`).
_TRACE_CACHE = {}
_TRACE_CACHE_MAX = 4


def _rng_state_key(rng):
    """Hashable snapshot of a numpy Generator's bit-generator state."""
    return repr(rng.bit_generator.state)


def make_trace(app, duration, rng):
    """Generate an original trace for ``app`` spanning ``duration`` seconds.

    The returned trace carries the app's SNI (so differentiators match
    it); pass it through :func:`repro.wehe.traces.bit_invert` for the
    control replay.
    """
    spec = APP_SPECS.get(app)
    if spec is None:
        raise KeyError(f"unknown app {app!r}; known: {sorted(APP_SPECS)}")
    if duration <= 0:
        raise ValueError("duration must be positive")
    key = (app, float(duration), _rng_state_key(rng))
    hit = _TRACE_CACHE.get(key)
    if hit is not None:
        trace, post_state = hit
        rng.bit_generator.state = post_state
        return trace
    if spec.protocol == "tcp":
        schedule = _tcp_schedule(spec, duration, rng)
    else:
        schedule = _udp_schedule(spec, duration, rng)
    trace = Trace(app=app, protocol=spec.protocol, schedule=schedule, sni=spec.sni)
    memoize(_TRACE_CACHE, _TRACE_CACHE_MAX, key, (trace, rng.bit_generator.state))
    return trace


def _tcp_schedule(spec, duration, rng):
    """Chunked video download: a burst of MSS packets every chunk period."""
    chunk_bytes = spec.rate_bps / 8.0 * spec.chunk_period
    packets_per_chunk = max(int(chunk_bytes / TCP_MSS_PAYLOAD), 1)
    schedule = []
    t = 0.0
    while t < duration:
        # Within a chunk, packets leave back-to-back at line rate; we
        # space them 0.1 ms apart as a stand-in for serialization.
        for i in range(packets_per_chunk):
            schedule.append((t + i * 1e-4, TCP_MSS_PAYLOAD))
        t += spec.chunk_period * float(rng.uniform(0.9, 1.1))
    return tuple(schedule)


def _udp_schedule(spec, duration, rng):
    """RTC traffic: packetized media with on/off talk spurts."""
    sizes, probs = zip(*spec.packet_sizes)
    sizes = np.array(sizes)
    probs = np.array(probs, dtype=float)
    probs /= probs.sum()
    # CDF + searchsorted over one uniform is bit-identical to
    # ``rng.choice(sizes, p=probs)`` but much cheaper per packet.
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    schedule = []
    t = 0.0
    in_spurt = rng.random() < spec.spurt_on_probability
    spurt_end = t + rng.exponential(
        spec.spurt_mean_on if in_spurt else spec.spurt_mean_off
    )
    while t < duration:
        if t >= spurt_end:
            in_spurt = not in_spurt
            spurt_end = t + rng.exponential(
                spec.spurt_mean_on if in_spurt else spec.spurt_mean_off
            )
        if in_spurt:
            size = int(sizes[cdf.searchsorted(rng.random(), "right")])
            schedule.append((t, size))
            t += spec.packet_interval * float(rng.uniform(0.7, 1.3))
        else:
            t = spurt_end
    if not schedule:
        schedule.append((0.0, int(sizes[0])))
    return tuple(schedule)
