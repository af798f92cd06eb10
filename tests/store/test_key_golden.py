"""Golden cache keys and record lines, pinned across commits.

Every key and line below was computed by the ``dataclasses.asdict``
encoder that shipped before the fast canonical path.  A drift here
turns every warm store cold (keys) or breaks byte-equality with stored
records (lines), so a change to ``repro.store.serialize`` or
``repro.store.keys`` must leave all of them unchanged.  The hypothesis
properties compare the current encoder against a reference copy of the
old one over inputs the pinned list cannot enumerate, and the detection
key against the digest of its full payload.
"""

import dataclasses
import enum
import hashlib
import json

import numpy as np
from hypothesis import HealthCheck, given, reject, settings
from hypothesis import strategies as st
from test_keys import BASE, FIELD_CHANGES, MULTIPATH_DEPENDENT

from repro.experiments.runner import DetectionExperimentRecord
from repro.experiments.scenarios import ScenarioConfig
from repro.faults import FaultProfile
from repro.faults.profile import ALL_SITES
from repro.store import (
    STORE_SCHEMA_VERSION,
    canonical_json,
    code_fingerprint,
    config_to_dict,
    detection_cache_key,
    fault_profile_id,
    record_line,
    wild_cache_key,
)
from repro.store.serialize import plain


def field_config(field, value):
    """BASE with one field changed, as ``test_keys`` varies it."""
    if field == "shaper_params":
        return BASE.with_(shaper="red", **{field: value})
    if field in MULTIPATH_DEPENDENT:
        return BASE.with_(multipath=2, **{field: value})
    return BASE.with_(**{field: value})


CONFIGS = {"base": BASE}
CONFIGS.update(
    (f"field:{field}", field_config(field, value))
    for field, value in FIELD_CHANGES.items()
)
CONFIGS["numpy_knobs"] = BASE.with_(seed=np.int64(5), rtt_1=np.float64(0.04))
CONFIGS["int_duration"] = BASE.with_(duration=8)


def golden_keys():
    """Every pinned key, by name (fingerprint pinned to ``"golden"``)."""
    keys = {}
    for name, config in CONFIGS.items():
        keys[f"detection/{name}"] = detection_cache_key(config, fingerprint="golden")
    knobs = {
        "unmodified": {"modified": False},
        "entropy": {"entropy": 1},
        "numpy_entropy": {"entropy": np.int64(7)},
        "merge_flows": {"merge_flows": True},
        "detectors": {"detectors": ["other"]},
        "detector_pair": {"detectors": ("loss_trend", "dtw")},
        "fault_named": {"fault_profile": "flaky"},
        "fault_spec": {"fault_profile": "replay_abort=0.5,corrupt_loss=1.0:2"},
        "schema": {"schema_version": 999},
    }
    for name, kwargs in knobs.items():
        keys[f"detection/knob:{name}"] = detection_cache_key(
            BASE, fingerprint="golden", **kwargs
        )
    wild = {
        "base": ("ISP1", "netflix", 0, {}),
        "numpy_seed": ("ISP5", "zoom", np.int64(3), {}),
        "sanity": ("ISP1", "netflix", 0, {"sanity_check": np.bool_(True)}),
        "hybrid": ("ISP2", "netflix", 4, {"fidelity": "hybrid"}),
    }
    for name, (isp, app, seed, kwargs) in wild.items():
        keys[f"wild/{name}"] = wild_cache_key(isp, app, seed, fingerprint="golden", **kwargs)
    return keys


def golden_records():
    """Records whose verdicts and rates are numpy scalars, by name."""
    return {
        "numpy_ok": DetectionExperimentRecord(
            config=BASE,
            verdicts={"loss_trend": np.bool_(True), "other": np.bool_(False)},
            retx_rate=np.float64(0.0125),
            queuing_delay=np.float64(0.031),
            loss_rate_1=np.float64(0.02),
            loss_rate_2=0.018,
            differentiation_visible=np.bool_(True),
        ),
        "shaped_aborted": DetectionExperimentRecord(
            config=BASE.with_(shaper="red", shaper_params=(("max_p", 0.2),)),
            status="aborted",
            differentiation_visible=np.bool_(False),
        ),
        "multipath_modulated": DetectionExperimentRecord(
            config=BASE.with_(
                multipath=2,
                flowlet_gap_s=0.05,
                background_modulation=((0.2, 0.3, 0.8),),
            ),
            verdicts={"loss_trend": np.bool_(False)},
            retx_rate=np.float32(0.5),
            loss_rate_1=np.float64(1e-05),
        ),
    }


GOLDEN_KEYS = {
    "detection/base": "57ac6f26f98b2cd98eda07914e178baac1442b9ca65e0b10558a11f1ec17fe13",
    "detection/field:app": "755ff4ee4f0212e5c3f743497a5d617d105f501b7d46344bcb38da4379614e7b",
    "detection/field:limiter": "b2b9d97bddfe193225a017abe679a4cd88c238da3978b5985e7da20faea91746",
    "detection/field:input_rate_factor": "78698c556b3cb8a625d23b74130c2886911a2ddd21d98ba3c1b30999b5ca3f53",
    "detection/field:queue_factor": "c92db398f54d48925d23dcc36e1d1306c84c8b325d604f81f984bc9593f334e7",
    "detection/field:background_share": "a821c800376487e7afca878d3285f5f46ae6e2c3d6502cb1f2fb3756c5e9cf33",
    "detection/field:background_rate_bps": "462ccb41924b402590aee76d8805c225bf5ce27c7264bd6e4991289aa4d22ad4",
    "detection/field:tcp_background_flows": "b23b5c47abdbe7f9916ecf7e4452185788e8a906019a22948282b23f59520d8e",
    "detection/field:rtt_1": "a6b2ad9f2144b1551be4466cd60420e8a33a96cab774dfa83258be1afce13536",
    "detection/field:rtt_2": "e8f6d2b9cd855acff59fdf4ea709b5116df9024c6c7bd152fef96bed707ce0e6",
    "detection/field:congestion_factor": "0ffae5c6dfeb9620ba78c80d5390229713f6fa729b441cbaf952d9ab74cc90fc",
    "detection/field:duration": "51a35a027afd618f4aceef07d6d248835b0a863080e34022119930eb8ff01f5c",
    "detection/field:background_modulation": "856a297b07cf64e01369d112b15fe91260c7ce5df71d09e696ac2905bb772c0b",
    "detection/field:seed": "690695332784d85b619e695dfa4ecdf4637804449c6a4bed4fbc172500fb5ac6",
    "detection/field:overcount_rate": "f6543cdcdc7c2119855a0fb892dbbc8079a48a405ccf377ecf0324ac625d8bdd",
    "detection/field:registration_jitter": "8263b90fe81fbe51be472965a66968b8911b169ac112025e73574853760333e0",
    "detection/field:fidelity": "f57518a07fc04941556b87f000592553f661997dc73eeffe373e785476ceaaac",
    "detection/field:shaper": "8f3f6aaefcefcd77af0e94f735fb2f656a789117d9d72d81a2e7d0d8d31ceb77",
    "detection/field:shaper_params": "49eda79fb903f1e15292ddab4cd613f46d8834f31dcc4d219d0c248ab499ca7a",
    "detection/field:multipath": "ca3edd63434f938ad57877dca7c6532d7a35f65f097654ef7a65be0955af1f50",
    "detection/field:flowlet_gap_s": "c8dafec1f7e3df6463fd2f868e6004675b2f793ddfe5dfc595abb40ca4602699",
    "detection/field:multipath_shaped": "79a89eb0c43a037c72cd8fc88bed9a0de4b0a46064d05c484cd3d8167aa079df",
    "detection/numpy_knobs": "91a247981e2b4a54addf758c98fe5c51157a5f23cb74c96d84658697f415ab1e",
    "detection/int_duration": "56eafefaad7a5fe01b15d2006ea1d712b6bd6aca681fdfe3b2934d8e9aeeaafe",
    "detection/knob:unmodified": "4205bfd7e7656753efdbe29e572af7600766b3304d3cd79ab7111c9eb027358c",
    "detection/knob:entropy": "96aac0edac5351da1f0f60b924ba8558bfe54f3465e3fce0f98c0090c6da1235",
    "detection/knob:numpy_entropy": "8c578ce19fbce005161ab86727704b49afdeb25ebbb6fef1024d39c3f80d21cd",
    "detection/knob:merge_flows": "dfa4bf894e24b00ddaa842c47d9d52025dbb2196344ce0a14a48586e7db330c0",
    "detection/knob:detectors": "541291ad16c1728ea02b682af3a84b70078549defec10996279aa1a6232c6f06",
    "detection/knob:detector_pair": "4b46ee24e9369e1fa9b0adbcf312085eab0329d90ca6bd0a36f8952a95d3971e",
    "detection/knob:fault_named": "a161dfa8799c44b7325279c8804a76aa286c6160d29f016cd7ee3fd1fa618c76",
    "detection/knob:fault_spec": "a9298442c1b4cb7dfbcec5ef98acb07b5b34bd7437fc528a18e9dd0c5518dfd0",
    "detection/knob:schema": "2a6840786fa2e018bc998e5212fcfdde58e6a7a1c57dcaff897f1b78aedca8db",
    "wild/base": "a28eb4c4ac78eea4bb48bab7b001be069bfd65fb402a696d378d7a7c170197c3",
    "wild/numpy_seed": "1a724133c9b10239f6b7ab297a005b83601b9128c6a67a07e8e2fe113d1498bc",
    "wild/sanity": "afa7906d74ca68483ee0339694cb73f203afabd9d3bd2edb196a573c72e0be79",
    "wild/hybrid": "e52970ad447a2cd5f9b02beb18abee918d5ca3b1cbd7c98b45f3739f0bddc595",
}

GOLDEN_LINES = {
    "numpy_ok": (
        '{"config": {"app": "zoom", "background_modulation": null, '
        '"background_rate_bps": 20000000.0, "background_share": 0.5, '
        '"congestion_factor": 0.2, "duration": 8.0, "fidelity": "packet", '
        '"input_rate_factor": 1.5, "limiter": "common", "overcount_rate": 0.0, '
        '"queue_factor": 0.5, "registration_jitter": 0.0, "rtt_1": 0.035, '
        '"rtt_2": 0.035, "seed": 0, "tcp_background_flows": 2}, '
        '"differentiation_visible": true, "kind": "detection", "loss_rate_1": 0.02, '
        '"loss_rate_2": 0.018, "queuing_delay": 0.031, "retx_rate": 0.0125, '
        '"status": "ok", "verdicts": {"loss_trend": true, "other": false}}'
    ),
    "shaped_aborted": (
        '{"config": {"app": "zoom", "background_modulation": null, '
        '"background_rate_bps": 20000000.0, "background_share": 0.5, '
        '"congestion_factor": 0.2, "duration": 8.0, "fidelity": "packet", '
        '"input_rate_factor": 1.5, "limiter": "common", "overcount_rate": 0.0, '
        '"queue_factor": 0.5, "registration_jitter": 0.0, "rtt_1": 0.035, '
        '"rtt_2": 0.035, "seed": 0, "shaper": "red", "shaper_params": [["max_p", '
        '0.2]], "tcp_background_flows": 2}, "differentiation_visible": false, '
        '"kind": "detection", "loss_rate_1": 0.0, "loss_rate_2": 0.0, '
        '"queuing_delay": 0.0, "retx_rate": 0.0, "status": "aborted", "verdicts": {}}'
    ),
    "multipath_modulated": (
        '{"config": {"app": "zoom", "background_modulation": [[0.2, 0.3, 0.8]], '
        '"background_rate_bps": 20000000.0, "background_share": 0.5, '
        '"congestion_factor": 0.2, "duration": 8.0, "fidelity": "packet", '
        '"flowlet_gap_s": 0.05, "input_rate_factor": 1.5, "limiter": "common", '
        '"multipath": 2, "multipath_shaped": null, "overcount_rate": 0.0, '
        '"queue_factor": 0.5, "registration_jitter": 0.0, "rtt_1": 0.035, '
        '"rtt_2": 0.035, "seed": 0, "tcp_background_flows": 2}, '
        '"differentiation_visible": true, "kind": "detection", "loss_rate_1": 1e-05, '
        '"loss_rate_2": 0.0, "queuing_delay": 0.0, "retx_rate": 0.5, "status": "ok", '
        '"verdicts": {"loss_trend": false}}'
    ),
}


class TestGolden:
    def test_keys_match_pinned(self):
        assert golden_keys() == GOLDEN_KEYS

    def test_record_lines_match_pinned(self):
        lines = {name: record_line(r) for name, r in golden_records().items()}
        assert lines == GOLDEN_LINES


class TestKeyAliasing:
    """Equal configs can still have different keys.

    ``8 == 8.0`` and ``hash(8) == hash(8.0)``, so the two configs below
    compare and hash alike, yet their canonical JSON (``8`` vs ``8.0``)
    and hence their keys differ.  A memo keyed by config equality would
    serve one config the other's cached record; keys must always be
    derived from the config's bytes.
    """

    def test_equal_configs_have_different_keys(self):
        as_int = ScenarioConfig(duration=8)
        as_float = ScenarioConfig(duration=8.0)
        assert as_int == as_float
        assert hash(as_int) == hash(as_float)
        assert detection_cache_key(as_int) != detection_cache_key(as_float)


# -- reference copy of the asdict-based encoder --------------------------------


def old_plain(obj):
    if obj is None or isinstance(obj, str):
        return obj
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, int):
        return int(obj)
    if isinstance(obj, float):
        return float(obj)
    if isinstance(obj, dict):
        return {str(key): old_plain(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [old_plain(value) for value in obj]
    if hasattr(obj, "item"):
        return old_plain(obj.item())
    raise TypeError(f"cannot canonicalize {type(obj).__name__!r} for the store")


def old_canonical_json(obj):
    return json.dumps(old_plain(obj), sort_keys=True)


def old_config_to_dict(config):
    data = old_plain(dataclasses.asdict(config))
    if data.get("shaper") is None:
        data.pop("shaper", None)
        data.pop("shaper_params", None)
    if not data.get("multipath"):
        data.pop("multipath", None)
        data.pop("flowlet_gap_s", None)
        data.pop("multipath_shaped", None)
    return data


def old_record_line(record):
    data = old_plain(dataclasses.asdict(record))
    data["config"] = old_config_to_dict(record.config)
    data["kind"] = "detection"
    return json.dumps(old_plain(data), sort_keys=True)


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


class Tag(str):
    pass


finite = st.floats(allow_nan=False, allow_infinity=False)
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    st.integers(-(10**6), 10**6).map(float),
    st.text(max_size=8),
    st.text(max_size=8).map(Tag),
    st.sampled_from(list(Level)),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    finite.map(np.float64),
    st.booleans().map(np.bool_),
    st.floats(width=32).map(np.float32),
)
dict_keys = st.one_of(
    st.text(max_size=6),
    st.text(max_size=6).map(Tag),
    st.integers(-50, 50),
    st.booleans(),
    st.none(),
    st.sampled_from(list(Level)),
)
values = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.lists(st.tuples(inner, inner), max_size=3).map(tuple),
        st.dictionaries(dict_keys, inner, max_size=4),
    ),
    max_leaves=20,
)


@st.composite
def configs(draw):
    shaper = draw(st.sampled_from([None, "red"]))
    multipath = draw(st.sampled_from([0, 2]))
    kwargs = {
        "app": draw(st.sampled_from(["netflix", "zoom", "youtube"])),
        "limiter": draw(st.sampled_from(["common", "noncommon", "perflow"])),
        "duration": draw(st.one_of(st.integers(1, 120), st.floats(0.5, 120.0))),
        "seed": draw(st.one_of(st.integers(0, 2**31), st.integers(0, 99).map(np.int64))),
        "rtt_1": draw(st.floats(0.02, 0.2).map(np.float64)),
        "input_rate_factor": draw(st.sampled_from([1.5, 2, np.float64(1.25)])),
        "background_modulation": draw(
            st.none() | st.lists(st.tuples(finite, finite, finite), max_size=2).map(tuple)
        ),
        "shaper": shaper,
        "shaper_params": (("max_p", draw(finite)),) if shaper else (),
        "multipath": multipath,
        "flowlet_gap_s": draw(st.sampled_from([None, 0.05])) if multipath else None,
        "multipath_shaped": draw(st.sampled_from([None, 1])) if multipath else None,
    }
    try:
        return ScenarioConfig(**kwargs)
    except ValueError:
        reject()


@st.composite
def records(draw):
    rate = st.one_of(finite, finite.map(np.float64), st.floats(width=32).map(np.float32))
    verdicts = draw(
        st.dictionaries(
            st.sampled_from(["loss_trend", "other"]),
            st.one_of(st.booleans(), st.booleans().map(np.bool_)),
        )
    )
    return DetectionExperimentRecord(
        config=draw(configs()),
        verdicts=verdicts,
        retx_rate=draw(rate),
        queuing_delay=draw(rate),
        loss_rate_1=draw(rate),
        loss_rate_2=draw(rate),
        differentiation_visible=draw(st.one_of(st.booleans(), st.booleans().map(np.bool_))),
        status=draw(st.sampled_from(["ok", "aborted"])),
    )


PROPERTY = settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.filter_too_much]
)


class TestMatchesAsdictReference:
    @PROPERTY
    @given(values)
    def test_canonical_json_of_values(self, value):
        assert canonical_json(value) == old_canonical_json(value)

    @PROPERTY
    @given(configs())
    def test_config_dict_and_json(self, config):
        assert canonical_json(config_to_dict(config)) == old_canonical_json(
            old_config_to_dict(config)
        )

    @PROPERTY
    @given(records())
    def test_record_line(self, record):
        assert record_line(record) == old_record_line(record)


# -- the detection key is the digest of its whole payload ----------------------


def reference_detection_key(
    config,
    detectors=("loss_trend",),
    modified=True,
    entropy=0,
    merge_flows=False,
    fault_profile=None,
    fingerprint=None,
    schema_version=STORE_SCHEMA_VERSION,
):
    """The key as the SHA-256 of the full canonical payload, built per call."""
    payload = {
        "kind": "detection",
        "config": config_to_dict(config),
        "detectors": plain(sorted(detectors)),
        "modified": bool(modified),
        "entropy": int(entropy),
        "merge_flows": bool(merge_flows),
        "fault_profile": fault_profile_id(fault_profile),
        "fingerprint": plain(fingerprint or code_fingerprint()),
        "schema_version": plain(schema_version),
    }
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


#: Values equal to 1 (and hashing alike) whose JSON differs: 1, 1.0, true.
ONE_LOOK_ALIKES = (1, 1.0, True, np.int64(1), np.float64(1.0), np.bool_(True))


def _spec(rules):
    parts = []
    for site, probability, max_fires in rules:
        fires = "" if max_fires is None else f":{max_fires}"
        parts.append(f"{site}={probability!r}{fires}")
    return ",".join(parts)


fault_profiles = st.one_of(
    st.none(),
    st.sampled_from(["", "none", "flaky", "chaos", FaultProfile.flaky(), FaultProfile.chaos(0.25)]),
    st.lists(
        st.tuples(
            st.sampled_from(ALL_SITES),
            st.floats(0.0, 1.0),
            st.none() | st.integers(0, 5),
        ),
        unique_by=lambda rule: rule[0],
        min_size=1,
        max_size=3,
    ).map(_spec),
)
detector_names = st.one_of(
    st.sampled_from(["loss_trend", "dtw", "other"]),
    st.text(max_size=5),
    st.text(max_size=5).map(Tag),
)
knob_kwargs = st.fixed_dictionaries(
    {},
    optional={
        "detectors": st.lists(detector_names, max_size=3) | st.lists(detector_names).map(tuple),
        "modified": st.booleans() | st.booleans().map(np.bool_) | st.integers(0, 2),
        "entropy": (
            st.integers(-5, 2**40)
            | st.integers(0, 99).map(np.int64)
            | st.booleans()
            | st.sampled_from(ONE_LOOK_ALIKES)
        ),
        "merge_flows": st.booleans() | st.booleans().map(np.bool_),
        "fault_profile": fault_profiles,
        "fingerprint": (
            st.none() | st.text(max_size=8) | st.text(min_size=1, max_size=8).map(Tag)
        ),
        "schema_version": (
            st.sampled_from(ONE_LOOK_ALIKES)
            | st.integers(0, 5)
            | st.integers(0, 5).map(float)
            | st.booleans()
            | st.text(max_size=3)
        ),
    },
)


class TestDetectionKeyMatchesPayloadDigest:
    @PROPERTY
    @given(configs(), knob_kwargs)
    def test_key_is_digest_of_reference_payload(self, config, kwargs):
        assert detection_cache_key(config, **kwargs) == reference_detection_key(config, **kwargs)

    def test_look_alike_knobs_keep_their_own_keys(self):
        # Interleaved so each value follows the others: a tail memo keyed
        # on values alone would serve 1.0 the tail of 1, and so on.
        for _ in range(2):
            for knob in ("schema_version", "entropy"):
                for value in ONE_LOOK_ALIKES:
                    kwargs = {knob: value}
                    assert detection_cache_key(BASE, **kwargs) == reference_detection_key(
                        BASE, **kwargs
                    )
        keys = {detection_cache_key(BASE, schema_version=v) for v in (1, 1.0, True)}
        assert len(keys) == 3

    def test_named_and_spec_profiles_and_explicit_fingerprints(self):
        for fault_profile in (None, "flaky", FaultProfile.flaky(), "replay_abort=0.5:2"):
            for fingerprint in (None, "golden", Tag("golden")):
                kwargs = {"fault_profile": fault_profile, "fingerprint": fingerprint}
                assert detection_cache_key(BASE, **kwargs) == reference_detection_key(
                    BASE, **kwargs
                )
