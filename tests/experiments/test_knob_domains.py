"""ScenarioConfig's declared domains against the hand-written checks
they replaced.

:func:`reference_checks` is a frozen copy of the checks ``ScenarioConfig``
ran before each field was declared once with ``knob()`` (its inline
``__post_init__`` and the ``validate_device_knobs`` of that time).  Over
generated knobs -- defaults, in-domain values and out-of-domain values,
with the two checks the declarations added (modulation triples and
shaper parameter names) kept in their domains -- the config constructs
exactly when the reference accepts it, and a config that differs from
the defaults in one knob fails with the reference's message.
"""

from math import inf

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.scenarios import ScenarioConfig
from repro.netsim.qdisc import qdisc_spec, supports_fidelity
from repro.wehe.apps import APP_SPECS

COMMON_DELAY_S = 0.002


def reference_checks(config, common_delay_s=COMMON_DELAY_S):
    """The checks of the hand-written code, verbatim; raises ValueError."""
    if config.app not in APP_SPECS:
        raise ValueError(f"unknown app {config.app!r}")
    # validate_device_knobs
    if config.limiter not in (None, "common", "noncommon", "perflow"):
        raise ValueError(f"unknown limiter placement {config.limiter!r}")
    if config.fidelity not in ("packet", "hybrid"):
        raise ValueError(f"unknown fidelity {config.fidelity!r}")
    for name, rtt in (("rtt_1", config.rtt_1), ("rtt_2", config.rtt_2)):
        if rtt <= 2 * common_delay_s:
            raise ValueError(f"{name}={rtt} too small for common delay")
        if not rtt < inf:
            raise ValueError(f"{name}={rtt} must be finite")
    if config.shaper is not None:
        if config.limiter is None:
            raise ValueError("shaper requires a limiter placement")
        qdisc_spec(config.shaper)
        if config.limiter == "perflow":
            # The registry entries without a class shaper, as a literal.
            if config.shaper in ("droptail", "perflow"):
                raise ValueError(f"shaper {config.shaper!r} cannot be used per-flow")
            if config.fidelity == "hybrid" and config.shaper != "tbf":
                raise ValueError(f"fluid per-flow has no {config.shaper!r} twin")
            # Added when the whole build call was bound: a per-flow
            # bucket is standard-sized, so the two-rate class lacks its
            # peak arguments unless shaper_params give them.
            if config.shaper == "dual_tbf" and not {
                "peak_rate_bps", "peak_burst_bytes"
            } <= dict(config.shaper_params).keys():
                raise ValueError(
                    "bad parameters for qdisc 'dual_tbf': "
                    "missing a required argument: 'peak_rate_bps'"
                )
        elif not supports_fidelity(config.shaper, config.fidelity):
            raise ValueError(
                f"shaper {config.shaper!r} has no {config.fidelity} "
                "implementation (AQMs are packet-only)"
            )
    elif config.shaper_params:
        raise ValueError("shaper_params requires a shaper")
    if not (config.multipath >= 0 and config.multipath % 1 == 0):
        raise ValueError("multipath must be a non-negative integer")
    if config.multipath:
        if config.fidelity != "packet":
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
    # ScenarioConfig.__post_init__
    for name in (
        "duration",
        "input_rate_factor",
        "queue_factor",
        "congestion_factor",
        "background_rate_bps",
    ):
        if not 0.0 < getattr(config, name) < inf:
            raise ValueError(f"{name} must be finite and positive")
    if config.input_rate_factor <= 1.0 and config.limiter is not None:
        raise ValueError("input_rate_factor must exceed 1 for throttling to bite")
    if not 0.0 <= config.background_share <= 1.0:
        raise ValueError("background_share must be in [0, 1]")
    for name in ("tcp_background_flows", "seed"):
        value = getattr(config, name)
        if not (value >= 0 and value % 1 == 0):
            raise ValueError(f"{name} must be a non-negative integer")
    if not 0.0 <= config.overcount_rate < 1.0:
        raise ValueError("overcount_rate must be in [0, 1)")
    if not 0.0 <= config.registration_jitter < inf:
        raise ValueError("registration_jitter must be finite and non-negative")


class _Knobs:
    """Attribute view of the defaults overridden by ``knobs``."""

    def __init__(self, knobs):
        self.__dict__.update(
            {name: getattr(ScenarioConfig, name) for name in ScenarioConfig.__dataclass_fields__}
        )
        self.__dict__.update(knobs)


ODD_NUMBERS = [0, -0.0, -1, -1.5, 0.5, 1, 1.0, 2, 2.5, 1e12, float("nan"), inf, -inf]


def numbers(*typical):
    return st.one_of(
        st.sampled_from([*typical, *ODD_NUMBERS]),
        st.floats(allow_nan=True, allow_infinity=True),
        st.integers(-3, 10),
    )


#: Per knob: defaults, in-domain and out-of-domain values.  The shaper
#: parameters are names every builder they can reach takes, and the
#: modulations are valid triples: those two domains are new.
KNOBS = {
    "app": st.sampled_from([*sorted(APP_SPECS), "friendster", ""]),
    "limiter": st.sampled_from([None, "common", "noncommon", "perflow", "everywhere"]),
    "input_rate_factor": numbers(1.5, 1.3, 0.9),
    "queue_factor": numbers(0.5, 0.25),
    "background_share": numbers(0.5, 0.25, 0.75, 1.01, -0.01),
    "background_rate_bps": numbers(20e6, 1e7),
    "tcp_background_flows": numbers(2, 4, 2.0),
    "rtt_1": numbers(0.035, 0.003, 0.004, 0.0041, 0.12),
    "rtt_2": numbers(0.035, 0.003, 0.06),
    "congestion_factor": numbers(0.2, 0.95, 1.15),
    "duration": numbers(60.0, 8.0, 120),
    "background_modulation": st.sampled_from(
        [None, (), ((0.2, 0.3, 0.8),), [[0.2, -0.0, 0.8]], ((1.0, 0.0, -1.0),)]
    ),
    "seed": numbers(0, 3, 7.0),
    "overcount_rate": numbers(0.0, 0.01, 0.99, 1.0),
    "registration_jitter": numbers(0.0, 0.001),
    "fidelity": st.sampled_from(["packet", "hybrid", "quantum"]),
    "shaper": st.sampled_from([None, "tbf", "red", "codel", "dual_tbf", "wfq"]),
    "multipath": st.sampled_from([0, 2, 3, 2.0, -0.0, -1, 2.5, float("nan")]),
    "flowlet_gap_s": st.sampled_from([None, 0.05, 0.0, -0.01, float("nan"), inf]),
    "multipath_shaped": st.sampled_from([None, 1, 2, 1.0, 0, 3, 1.5]),
}

#: Per shaper, parameter names both its device and its per-flow bucket
#: take; with no shaper or an unknown one, any parameter is rejected.
SHAPER_PARAMS = {
    None: [(), (("max_p", 0.2),)],
    "tbf": [()],
    "dual_tbf": [()],
    "red": [(), (("max_p", 0.2),), (("w_q", 0.1), ("min_th", 0.2))],
    "codel": [(), (("target", 0.01),), (("interval", 0.2),)],
    "wfq": [(), (("max_p", 0.2),)],
}


@st.composite
def knob_sets(draw):
    knobs = draw(st.fixed_dictionaries({}, optional=KNOBS))
    if draw(st.booleans()):
        knobs["shaper_params"] = draw(st.sampled_from(SHAPER_PARAMS[knobs.get("shaper")]))
    return knobs


@settings(max_examples=600, deadline=None)
@given(knob_sets())
def test_constructs_exactly_when_the_reference_accepts(knobs):
    try:
        reference_checks(_Knobs(knobs))
    except ValueError as reference_error:
        with pytest.raises(ValueError) as error:
            ScenarioConfig(**knobs)
        if len(knobs) == 1:
            assert str(error.value) == str(reference_error)
    else:
        ScenarioConfig(**knobs)
