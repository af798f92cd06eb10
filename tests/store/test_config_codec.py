"""The compiled ScenarioConfig encoding against the dict-based one.

:func:`repro.store.serialize.config_json` reuses a default's pre-encoded
fragment only when a field's value *is* the class default.  Each field
below is drawn from the default object itself, an equal value of
another type (``60`` for ``60.0``, numpy scalars), ``-0.0`` (equal to
``0``), a list where a tuple is expected, or a plain other value; the
shaper and multipath groups switch on and off; and each config is also
checked after ``config_from_dict`` and ``dataclasses.replace``
round-trips.  Equality in place of identity fails here (``60 == 60.0``
encodes as ``60.0``).
"""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, reject, settings
from hypothesis import strategies as st
from test_key_golden import reference_detection_key

from repro.experiments.scenarios import ScenarioConfig
from repro.store import config_from_dict, config_to_dict, detection_cache_key, serialize
from repro.store.serialize import config_json, plain_json

DEFAULTS = {field.name: field.default for field in dataclasses.fields(ScenarioConfig)}

#: Values other than the default object, per field: equal values of
#: other types first, then ``-0.0`` and lists where they construct.
ALTERNATIVES = {
    "app": ["".join(["net", "flix"]), "zoom"],
    "limiter": ["".join(["com", "mon"]), "noncommon", "perflow", None],
    "input_rate_factor": [float("1.5"), np.float64(1.5), 2, np.int64(2), 2.0],
    "queue_factor": [float("0.5"), np.float64(0.5), 1, np.int64(1), 0.25],
    "background_share": [np.float64(0.5), 0, -0.0, 1, True, 0.75],
    "background_rate_bps": [20000000, np.int64(20000000), np.float64(2e7), 1e7],
    "tcp_background_flows": [2.0, np.int64(2), np.float64(2.0), 4],
    "rtt_1": [float("0.035"), np.float64(0.035), 0.05],
    "rtt_2": [float("0.035"), np.float64(0.035), 0.06],
    "congestion_factor": [float("0.2"), np.float64(0.2), 1, np.int64(1), 0.95],
    "duration": [60, np.int64(60), np.float64(60.0), 8, 8.0],
    "background_modulation": [((0.2, 0.3, 0.8),), [[0.2, -0.0, 0.8]], [(0.2, 0.3, 0.8)]],
    "seed": [np.int64(0), 0.0, -0.0, False, 5, np.int64(5)],
    "overcount_rate": [0, -0.0, np.float64(0.0), False, 0.01],
    "registration_jitter": [0, -0.0, np.float64(0.0), 0.001],
    "fidelity": ["".join(["pack", "et"]), "hybrid"],
}

#: Switch values that turn each optional group on or off, and the
#: values of its other fields while it is on.
SHAPER_ON = ["red", "tbf", "codel", "".join(["r", "ed"])]
SHAPER_PARAMS_ON = [[], (("max_p", 0.2),), [["max_p", -0.0]], [("max_p", np.float64(0.1))]]
MULTIPATH_OFF = [0, 0.0, -0.0, False, np.int64(0)]
MULTIPATH_ON = [2, 2.0, np.int64(2), 3]
MULTIPATH_DEPENDENT_ON = {
    "flowlet_gap_s": [0.05, np.float64(0.05)],
    "multipath_shaped": [1, 1.0, np.int64(1)],
}


def field_value(name, choices):
    """The default object itself, or one of ``choices``."""
    return st.sampled_from([DEFAULTS[name], *choices])


@st.composite
def configs(draw):
    kwargs = {name: draw(field_value(name, values)) for name, values in ALTERNATIVES.items()}
    if draw(st.booleans()):
        kwargs["shaper"] = draw(st.sampled_from(SHAPER_ON))
        kwargs["shaper_params"] = draw(field_value("shaper_params", SHAPER_PARAMS_ON))
    else:
        kwargs["shaper"] = None
        kwargs["shaper_params"] = draw(field_value("shaper_params", [[]]))
    if draw(st.booleans()):
        kwargs["multipath"] = draw(st.sampled_from(MULTIPATH_ON))
        for name, values in MULTIPATH_DEPENDENT_ON.items():
            kwargs[name] = draw(field_value(name, values))
    else:
        kwargs["multipath"] = draw(field_value("multipath", MULTIPATH_OFF))
    try:
        config = ScenarioConfig(**kwargs)
    except ValueError:
        reject()
    # The same config after the store's round-trip and after replace().
    round_trip = config_from_dict(json.loads(plain_json(config_to_dict(config))))
    return draw(
        st.sampled_from(
            [
                config,
                round_trip,
                dataclasses.replace(config),
                dataclasses.replace(round_trip, seed=draw(field_value("seed", [7]))),
            ]
        )
    )


PROPERTY = settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)


def check(config):
    assert config_json(config) == plain_json(config_to_dict(config))
    assert detection_cache_key(config, fingerprint="codec") == reference_detection_key(
        config, fingerprint="codec"
    )


@pytest.mark.parametrize("c_encoder", [True, False], ids=["c-encoder", "python-encoder"])
@PROPERTY
@given(configs())
def test_compiled_encoding_matches_the_dict_encoding(c_encoder, config):
    if c_encoder:
        check(config)
        return
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(json.encoder, "c_make_encoder", None)
        patch.setattr(serialize, "_encode", serialize._make_encode())
        patch.setattr(serialize, "_CONFIG_TABLES", serialize._compile_config_tables())
        check(config)


def test_default_look_alikes_are_encoded_not_reused():
    # Equal to the defaults, yet each encodes differently from them.
    config = ScenarioConfig(duration=60, seed=-0.0, overcount_rate=False)
    encoded = config_json(config)
    assert encoded == plain_json(config_to_dict(config))
    for fragment in ('"duration": 60,', '"overcount_rate": false,', '"seed": -0.0,'):
        assert fragment in encoded


def test_subclass_takes_the_dict_encoding():
    @dataclasses.dataclass(frozen=True)
    class Tagged(ScenarioConfig):
        tag: str = "x"

    config = Tagged()
    assert config_json(config) == plain_json(config_to_dict(config))
    assert '"tag": "x"' in config_json(config)
