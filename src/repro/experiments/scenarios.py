"""Experiment scenarios -- the knobs of the paper's Table 2.

A :class:`ScenarioConfig` fully determines one emulation/simulation
experiment: the replayed application, where the rate limiter sits, how
hard it throttles (the ``input_rate_factor``: traffic arrives at the
limiter at 1.3x / 1.5x / 2x / 2.5x its rate), how deep its queue is
(0.25x / 0.5x / 1x the burst), what share of the background traffic
competes inside the limiter (25 / 50 / 75 %), the two path RTTs, and
how congested the non-common links are (input-traffic / bandwidth of
0.2 default, 0.95 / 1.05 / 1.15 for Table 4).

Rates are scaled to simulator-friendly magnitudes; the *ratios* (which
is what the evaluation sweeps) match the paper.
"""

import dataclasses
from collections import namedtuple
from dataclasses import dataclass, replace
from math import inf

from repro.netsim.topology import FIDELITIES, LIMITERS, validate_device_knobs
from repro.wehe.apps import APP_SPECS

#: Paper parameter grids (Table 2); bold defaults first.
INPUT_RATE_FACTORS = (1.5, 1.3, 2.0, 2.5)
QUEUE_FACTORS = (0.5, 0.25, 1.0)
BACKGROUND_SHARES = (0.5, 0.25, 0.75)
CONGESTION_FACTORS = (0.2, 0.95, 1.05, 1.15)
RTT2_SWEEP = (0.010, 0.015, 0.025, 0.035, 0.060, 0.120)

#: One knob's legal values: ``test``, a Python expression over ``value``
#: (and this module's names), and the ``str.format`` ``message``
#: (``name``, ``value``) its failure raises; without a test, only the
#: cross-field rules of ``validate_device_knobs`` apply.  ``type`` is the
#: flag and wire type (``int`` if integral, ``float`` for other numbers)
#: and ``choices`` a closed set of values.  Each test below fails on NaN,
#: so a NaN knob cannot poison a rate or a DRR cost downstream.
Domain = namedtuple("Domain", "test message type choices", defaults=(None,) * 4)

POSITIVE = Domain("0.0 < value < inf", "{name} must be finite and positive", float)
UNIT = Domain("0.0 <= value <= 1.0", "{name} must be in [0, 1]", float)
UNIT_OPEN = Domain("0.0 <= value < 1.0", "{name} must be in [0, 1)", float)
NON_NEGATIVE = Domain("0.0 <= value < inf", "{name} must be finite and non-negative", float)
#: ``% 1 == 0`` fails on NaN and infinity as well as on fractions, and
#: keeps integral floats such as ``2.0`` and ``-0.0``.
COUNT = Domain("value >= 0 and value % 1 == 0", "{name} must be a non-negative integer", int)


def knob(default, domain, *, group=None, service=False, cli=None):
    """A :class:`ScenarioConfig` field: its default, its :data:`Domain`,
    its optional store group (:data:`repro.store.serialize.OPTIONAL_GROUPS`,
    named after the group's switch field), whether a service submission
    may set it, and its ``localize``/``sweep`` ``(flag, help[, metavar])``."""
    metadata = {"domain": domain, "group": group, "service": service, "cli": cli}
    return dataclasses.field(default=default, metadata=metadata)


def _is_modulation(value):
    """``(period, sigma, rho)`` triples the background can draw (its
    AR(1) innovation takes ``sqrt(1 - rho**2)``)."""
    try:
        return all(
            0.0 < period < inf and 0.0 <= sigma < inf and -1.0 <= rho <= 1.0
            for period, sigma, rho in value
        )
    except (TypeError, ValueError):  # not a sequence of numeric triples
        return False


MODULATION = Domain(
    "value is None or _is_modulation(value)",
    "{name} must be None or (period, sigma, rho) triples with "
    "0 < period < inf, 0 <= sigma < inf and -1 <= rho <= 1",
)
APP = Domain("value in APP_SPECS", "unknown app {value!r}", None, tuple(sorted(APP_SPECS)))


@dataclass(frozen=True)
class ScenarioConfig:
    """One experiment's parameters (defaults = Table 2 bold values)."""

    app: str = knob("netflix", APP, cli=("--app", "replayed application"))
    limiter: str = knob(
        "common", Domain(choices=LIMITERS), service=True,
        cli=("--limiter", "rate-limiter placement (ground truth)"),
    )
    input_rate_factor: float = knob(
        1.5, POSITIVE, service=True, cli=("--factor", "input-rate factor (Table 2)")
    )
    queue_factor: float = knob(
        0.5, POSITIVE, service=True, cli=("--queue", "TBF queue as a multiple of the burst")
    )
    background_share: float = knob(0.5, UNIT, service=True)
    background_rate_bps: float = knob(20e6, POSITIVE)
    tcp_background_flows: int = knob(2, COUNT)
    rtt_1: float = knob(0.035, Domain(type=float), service=True)
    rtt_2: float = knob(0.035, Domain(type=float), service=True)
    congestion_factor: float = knob(0.2, POSITIVE, service=True)
    duration: float = knob(
        60.0, POSITIVE, service=True, cli=("--duration", "replay duration in seconds")
    )
    #: override the background modulation components (ablation knob);
    #: None uses repro.netsim.background.DEFAULT_MODULATION.
    background_modulation: tuple = knob(None, MODULATION)
    seed: int = knob(0, COUNT, service=True, cli=("--seed", None))
    #: extra loss-measurement noise (see RetransmissionLossEstimator)
    overcount_rate: float = knob(0.0, UNIT_OPEN)
    registration_jitter: float = knob(0.0, NON_NEGATIVE)
    #: Under ``"hybrid"`` only foreground replay packets and ACKs remain
    #: exact DES events (:mod:`repro.netsim.fluid`).
    fidelity: str = knob("packet", Domain(choices=FIDELITIES), cli=(
        "--fidelity",
        "simulation fidelity: 'packet' simulates every background packet; 'hybrid' uses "
        "the calibrated fluid background model (5-10x faster cells, verdict-equivalent)",
    ))
    #: ``limiter`` says where, ``shaper`` says what: any
    #: :func:`repro.netsim.qdisc.registered_qdiscs` name.
    shaper: str = knob(None, Domain(), group="shaper", cli=(
        "--shaper",
        "rate-limiting mechanism deployed at the --limiter placement ('repro qdisc' lists "
        "them: red, codel, pie, dual_tbf, conditional, ecn, ...); default: the paper's "
        "token bucket",
        "NAME",
    ))
    #: ``(name, value)`` pairs, tuples so configs stay hashable.
    shaper_params: tuple = knob((), Domain(), group="shaper", cli=(
        "--shaper-params",
        "mechanism parameters, e.g. 'max_p=0.2,w_q=0.1' (requires --shaper)",
        "K=V[,K=V...]",
    ))
    #: ECMP members: the common-bottleneck assumption becomes probabilistic.
    multipath: int = knob(0, Domain(type=int), group="multipath", cli=(
        "--multipath",
        "model the ISP's common device as an N-member ECMP bundle (the two replays "
        "co-hash with probability 1/N); 0 keeps the classic single common link",
        "N",
    ))
    #: LetFlow-style switching; None keeps classic sticky ECMP.
    flowlet_gap_s: float = knob(None, Domain(type=float), group="multipath", cli=(
        "--flowlet-gap",
        "flowlet re-hash gap: a flow pausing longer than this re-hashes onto a "
        "(possibly different) member (requires --multipath)",
        "SECONDS",
    ))
    #: how many bundle members carry the limiter (None = all); the
    #: subset is a seeded draw per scenario seed.
    multipath_shaped: int = knob(None, Domain(type=int), group="multipath")

    def __post_init__(self):
        _check_domains(self)
        # The device knobs share their names, and their one validator,
        # with the topology the runner builds from this config.
        validate_device_knobs(self)
        if self.input_rate_factor <= 1.0 and self.limiter is not None:
            raise ValueError("input_rate_factor must exceed 1 for throttling to bite")
        # Nested sequences become tuples, so configs stay hashable and a
        # decoded JSON config equals the one it was encoded from.
        if self.shaper is not None:
            object.__setattr__(
                self,
                "shaper_params",
                tuple(tuple(pair) for pair in self.shaper_params),
            )
        if self.background_modulation is not None:
            object.__setattr__(
                self,
                "background_modulation",
                tuple(tuple(part) for part in self.background_modulation),
            )

    @property
    def protocol(self):
        return APP_SPECS[self.app].protocol

    @property
    def replay_rate_bps(self):
        """Nominal offered rate of one original replay."""
        return APP_SPECS[self.app].rate_bps

    @property
    def limiter_rate_bps(self):
        """Throttling rate such that the simultaneous replay plus the
        throttled background share arrives at ``input_rate_factor`` times
        the rate (Section 6.2's load definition)."""
        offered = (
            2.0 * self.replay_rate_bps
            + self.background_share * self.background_rate_bps
        )
        if self.limiter == "noncommon":
            # Each of the two limiters sees one replay and half of the
            # background aggregate.
            offered = (
                self.replay_rate_bps
                + self.background_share * self.background_rate_bps / 2.0
            )
        elif self.limiter == "perflow":
            # Per-flow policers: each flow is individually held below
            # its own offered rate.
            offered = self.replay_rate_bps
        return offered / self.input_rate_factor

    @property
    def noncommon_bandwidth_bps(self):
        """Link bandwidth of l1/l2 given the Table-2 congestion factor."""
        input_rate = self.replay_rate_bps + self.background_rate_bps / 2.0
        return input_rate / self.congestion_factor

    def with_(self, **changes):
        """Functional update (convenience for sweeps)."""
        return replace(self, **changes)


def _compile_checks():
    """ScenarioConfig's domain checks, written out inline as a dataclass's
    ``__init__`` is, so a check costs its comparison.  A field declared
    without :func:`knob` fails here, at import."""
    lines = ["def check(config):"]
    for field in dataclasses.fields(ScenarioConfig):
        name, domain = field.name, field.metadata["domain"]
        if domain.test is not None:
            lines += [
                f"    value = config.{name}",
                f"    if not ({domain.test}):",
                f"        raise ValueError({domain.message!r}.format(name={name!r}, value=value))",
            ]
    namespace = dict(globals())
    exec("\n".join(lines + ["    return None"]), namespace)
    return namespace["check"]


_check_domains = _compile_checks()


def severity_grid(app, seeds, factors=INPUT_RATE_FACTORS, queues=QUEUE_FACTORS):
    """The Section-6.2 grid: rate factor x queue factor x seeds.

    ``seeds`` may be any iterable, a one-shot generator included: each
    grid helper materializes it once, since every outer cell reuses it.
    """
    seeds = list(seeds)
    for factor in factors:
        for queue in queues:
            for seed in seeds:
                yield ScenarioConfig(
                    app=app,
                    input_rate_factor=factor,
                    queue_factor=queue,
                    seed=seed,
                )


def rtt_grid(app, seeds, rtts=RTT2_SWEEP, **common):
    """The Table-3 grid: asymmetric path RTTs x seeds."""
    seeds = list(seeds)
    for rtt_2 in rtts:
        for seed in seeds:
            yield ScenarioConfig(app=app, rtt_2=rtt_2, seed=seed, **common)


def congestion_grid(app, seeds, factors=CONGESTION_FACTORS, **common):
    """The Table-4 grid: non-common-link congestion x seeds."""
    seeds = list(seeds)
    for factor in factors:
        for seed in seeds:
            yield ScenarioConfig(
                app=app, congestion_factor=factor, seed=seed, **common
            )


def seed_sweep(base_config, seeds):
    """One cell replicated across seeds (the FN/FP rate estimator).

    Every sweep generator in this module yields plain configs; feed the
    list to :func:`repro.api.run_sweep` to execute it on
    all cores, or iterate it serially -- results are identical either
    way.
    """
    for seed in seeds:
        yield base_config.with_(seed=seed)
