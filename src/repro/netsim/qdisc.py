"""The formal qdisc protocol and the shaper registry.

Every queueing discipline in ``repro.netsim`` implements the same small
contract, consumed by :class:`~repro.netsim.link.Link`:

- ``enqueue(packet, now) -> bool`` -- False means the packet was
  dropped at arrival.
- ``dequeue(now) -> (packet | None, wake | None)`` -- the next packet
  to transmit; ``(None, t)`` means a packet exists but is not yet
  eligible (retry at ``t``); ``(None, None)`` means empty.
- ``__len__`` -- number of queued packets.
- ``backlog_bytes`` -- bytes currently queued.
- ``stateful_empty_poll`` -- whether ``dequeue`` on an empty qdisc
  changes its state.  The link polls at the end of a transmission only
  when a packet waits behind it, unless this is True; a qdisc that
  does not declare it is assumed to.

plus the statistics the experiment harness reads (``drops``,
``drops_bytes``, ``enqueued``, ``mean_delay``).  Disciplines that
support the hybrid fluid fidelity additionally expose
``set_service_rate`` / ``set_source_rate`` / ``fluid_stats`` (see
:mod:`repro.netsim.fluid`).

This module makes the contract explicit (:class:`Qdisc`) and provides a
seeded registry so topologies, scenario configs, and the CLI can name a
shaper mechanism (``"tbf"``, ``"red"``, ``"codel"``, ``"pie"``,
``"dual_tbf"``, ``"conditional"``, ``"ecn"``, ...) instead of importing
concrete classes.  Mechanisms are *orthogonal* to placement: a
:class:`~repro.experiments.scenarios.ScenarioConfig` picks where the
limiter sits (``limiter``) and separately what device it is
(``shaper``).

Each mechanism is registered once, as the class of its queue at each
fidelity plus one *sizing rule*.  A rate-limiting mechanism's class is
the throttled-class shaper; :func:`build_device` sizes it from the
Appendix-C.1 knobs (``rate_bps``, ``rtt_s``, ``queue_factor``) and
wraps it in the classifier + FIFO (``fifo_capacity``) + scheduler
device, or composes it per flow.  Every parameter default is written
once, in the class or the rule that takes it.  Scenario validation
builds one device and drops it, so a scenario is rejected at
construction exactly when its build would fail.  A mechanism
without a rule (``"droptail"``) is a plain qdisc built from its own
keywords.  A mechanism whose class takes ``seed`` is *seeded*: the
topology derives a seed per instance so every run is reproducible.
"""

import inspect
from functools import cache, partial
from itertools import count


#: Signatures of the registered classes and rules, read once each:
#: scenario validation builds a device on every construction.
_signature = cache(inspect.signature)


class QdiscFidelityError(ValueError):
    """Raised when a mechanism has no twin for the requested fidelity."""


class Qdisc:
    """Protocol base class for queueing disciplines.

    Subclasses keep ``__slots__`` economics (this base declares none)
    and must implement the four core methods below.  Statistics
    attributes (``drops``, ``drops_bytes``, ``enqueued``,
    ``mean_delay``) are part of the informal contract but are left to
    subclasses, which typically back them with plain slots.
    """

    __slots__ = ()

    #: True when ``dequeue`` on an empty qdisc changes its state (CoDel
    #: leaves its dropping state, the conditional shaper checks its
    #: deadline, a fluid twin integrates its load): the link must then
    #: poll at the end of every transmission, not only when a packet
    #: waits.
    stateful_empty_poll = False

    def enqueue(self, packet, now):
        """Accept or drop ``packet`` arriving at ``now``; True = accepted."""
        raise NotImplementedError

    def dequeue(self, now):
        """Return ``(packet, None)``, ``(None, wake_time)`` or ``(None, None)``."""
        raise NotImplementedError

    def __len__(self):
        raise NotImplementedError

    @property
    def backlog_bytes(self):
        raise NotImplementedError


class QdiscSpec:
    """One registry entry: the mechanism's class per fidelity and its sizing rule.

    ``packet`` and ``fluid`` are classes (``fluid`` is None for a
    packet-only mechanism).  With a ``sizing`` rule they are
    throttled-class shapers, built by :func:`build_device` as
    ``cls(rate_bps, *sizing(rate_bps, rtt_s, queue_factor, **own),
    **params)`` (``"perflow"``'s are the per-flow devices that hold
    them); without one they are plain qdiscs, built as ``cls(**params)``.
    """

    __slots__ = ("name", "packet", "fluid", "sizing", "doc")

    def __init__(self, name):
        self.name = name
        self.packet = None
        self.fluid = None
        self.sizing = None
        self.doc = ""

    @property
    def seeded(self):
        """True when the mechanism draws from a seeded RNG (its class takes ``seed``)."""
        return "seed" in _signature(self.packet).parameters


_REGISTRY = {}
_BUILTINS_LOADED = False


def register(name, *, packet=None, fluid=None, sizing=None, doc=None):
    """Register (or extend) a qdisc mechanism under ``name``.

    Modules register themselves at import time; the packet and fluid
    classes of one mechanism may be registered from different modules
    (``token_bucket.py`` registers the packet ``"tbf"`` shaper,
    ``fluid.py`` attaches its fluid twin).  Re-registering a part that
    already exists is an error -- it would silently change behaviour.
    """
    spec = _REGISTRY.get(name)
    if spec is None:
        spec = QdiscSpec(name)
        _REGISTRY[name] = spec
    for attr, value in (("packet", packet), ("fluid", fluid), ("sizing", sizing)):
        if value is not None:
            if getattr(spec, attr) is not None:
                raise ValueError(f"qdisc {name!r} already has a {attr} part")
            setattr(spec, attr, value)
    if doc:
        spec.doc = doc
    return spec


def _ensure_builtins():
    """Import the modules that register the built-in disciplines."""
    global _BUILTINS_LOADED
    if _BUILTINS_LOADED:
        return
    _BUILTINS_LOADED = True
    import repro.netsim.queues  # noqa: F401  (registers droptail)
    import repro.netsim.token_bucket  # noqa: F401  (registers tbf)
    import repro.netsim.per_flow  # noqa: F401  (registers perflow)
    import repro.netsim.shapers  # noqa: F401  (registers the zoo)
    import repro.netsim.fluid  # noqa: F401  (attaches fluid twins)


def registered_qdiscs():
    """Sorted names of every registered mechanism."""
    _ensure_builtins()
    return tuple(sorted(_REGISTRY))


def qdisc_spec(name):
    """The :class:`QdiscSpec` for ``name`` (raises ValueError if unknown)."""
    _ensure_builtins()
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise ValueError(f"unknown qdisc {name!r} (known: {known})") from None


def qdisc_class(spec, fidelity):
    """The class of ``spec`` at ``fidelity``; raises :class:`QdiscFidelityError` if absent."""
    if fidelity == "packet":
        cls = spec.packet
    elif fidelity == "hybrid":
        cls = spec.fluid
    else:
        raise ValueError(f"unknown fidelity {fidelity!r}")
    if cls is None:
        raise QdiscFidelityError(f"qdisc {spec.name!r} has no {fidelity} implementation")
    return cls


def supports_fidelity(name, fidelity):
    """True when mechanism ``name`` can be built at ``fidelity``."""
    try:
        qdisc_class(qdisc_spec(name), fidelity)
    except QdiscFidelityError:
        return False
    return True


def make_qdisc(name, fidelity="packet", **params):
    """Build a registered queueing discipline.

    ``fidelity="packet"`` builds the exact per-packet device;
    ``"hybrid"`` builds its fluid twin (raises
    :class:`QdiscFidelityError` for mechanisms without one -- the AQMs'
    drop processes depend on instantaneous queue state in a way the
    closed-form fluid integration cannot reproduce).  A rate-limiting
    mechanism takes :func:`build_device`'s keywords.
    """
    spec = qdisc_spec(name)
    try:
        if spec.sizing is None:
            return qdisc_class(spec, fidelity)(**params)
        return build_device(name, fidelity, **params)
    except TypeError as exc:
        raise ValueError(f"bad parameters for qdisc {name!r}: {exc}") from exc


def standard_sizing(rate_bps, rtt_s, queue_factor):
    """The paper's TBF sizing: burst = rate x RTT, limit = factor x burst.

    ``burst = rate x RTT`` so the throttling rate is achieved on
    average; the queue is ``queue_factor x burst`` (0.25/0.5/1 in
    Table 2; smaller is more policer-like, larger more shaper-like).
    """
    burst = max(int(rate_bps * rtt_s / 8.0), 3000)
    limit = max(int(queue_factor * burst), 1600)
    return burst, limit


#: Seed stride between instances of a seeded mechanism: limiter ``i`` of
#: a topology and per-flow bucket ``k`` of a device draw from
#: ``seed + SEED_STRIDE * i`` (resp. ``k``).
SEED_STRIDE = 1009

#: The registered per-flow device (the Section-7 limiter).
PER_FLOW = "perflow"


def build_device(
    name, fidelity, rate_bps, rtt_s=0.035, queue_factor=0.5, fifo_capacity=500_000, **params
):
    """The Appendix-C.1 device of rate-limiting mechanism ``name``.

    The shaper class registered at ``fidelity`` is sized by the
    mechanism's rule; the rule takes the parameters it names and the
    class the rest.  ``name="perflow"`` builds the per-flow device
    instead, around buckets of mechanism ``params["shaper"]`` (default
    ``"tbf"``): one per dscp=1 flow, each sized by
    :func:`standard_sizing`, bucket ``k`` of a seeded class drawing
    from ``seed + SEED_STRIDE * k``.  Every argument is checked here: a
    bad one raises TypeError or ValueError at the build, not at the
    first packet.
    """
    spec = qdisc_spec(name)
    if spec.sizing is None:
        raise ValueError(f"qdisc {name!r} is not a rate-limiting mechanism")
    if name == PER_FLOW:
        return _per_flow_device(
            spec, fidelity, rate_bps, rtt_s, queue_factor, fifo_capacity, **params
        )
    shaper_cls = qdisc_class(spec, fidelity)
    taken = _signature(spec.sizing).parameters
    own = {key: params.pop(key) for key in list(params) if key in taken}
    shaper = shaper_cls(rate_bps, *spec.sizing(rate_bps, rtt_s, queue_factor, **own), **params)
    return shaper.DEVICE(shaper, shaper.FIFO(fifo_capacity))


def _per_flow_device(
    spec, fidelity, rate_bps, rtt_s, queue_factor, fifo_capacity, shaper="tbf", seed=0, **params
):
    """The per-flow device ``spec`` around buckets of mechanism ``shaper``."""
    bucket = qdisc_spec(shaper)
    if bucket.sizing is None or shaper == PER_FLOW:
        raise ValueError(f"shaper {shaper!r} cannot be used per-flow")
    device_cls = qdisc_class(spec, fidelity)
    if fidelity != "packet" and shaper != "tbf":
        # A fluid per-flow device polices the marked background in
        # closed form at the token-bucket rate; other bucket kinds have
        # no fluid counterpart.
        raise QdiscFidelityError(f"fluid per-flow has no {shaper!r} twin")
    sized = (rate_bps, *spec.sizing(rate_bps, rtt_s, queue_factor))
    buckets = None  # the device's own default: token buckets
    if shaper != "tbf" or params:
        buckets = _flow_buckets(bucket, sized, seed, params)
    return device_cls(*sized, fifo_capacity=fifo_capacity, bucket_factory=buckets)


def _flow_buckets(spec, sized, seed, params):
    """A zero-argument factory of per-flow buckets: bucket ``k`` of a
    seeded class draws from ``seed + SEED_STRIDE * k``, so per-flow
    RED/PIE buckets stay reproducible without sharing one RNG stream.
    One bucket is built and dropped here, so bad parameters fail with
    the device rather than at its first flow."""
    shaper_cls = spec.packet
    shaper_cls(*sized, **params)
    if not spec.seeded:
        return partial(shaper_cls, *sized, **params)
    counter = count()

    def build():
        return shaper_cls(*sized, seed=seed + SEED_STRIDE * next(counter), **params)

    return build
