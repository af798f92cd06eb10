"""Cache-key stability: same inputs => same key, any change => new key."""

import dataclasses

from repro.experiments.scenarios import ScenarioConfig
from repro.faults import FaultProfile
from repro.store import (
    code_fingerprint,
    detection_cache_key,
    fault_profile_id,
    wild_cache_key,
)
from repro.store.serialize import OPTIONAL_GROUPS

BASE = ScenarioConfig(app="zoom", duration=8.0, seed=0)

#: One changed value per ScenarioConfig field (all different from BASE).
FIELD_CHANGES = {
    "app": "netflix",
    "limiter": "noncommon",
    "input_rate_factor": 2.0,
    "queue_factor": 1.0,
    "background_share": 0.25,
    "background_rate_bps": 10e6,
    "tcp_background_flows": 4,
    "rtt_1": 0.050,
    "rtt_2": 0.060,
    "congestion_factor": 0.95,
    "duration": 30.0,
    "background_modulation": ((0.2, 0.3, 0.8),),
    "seed": 1,
    "overcount_rate": 0.01,
    "registration_jitter": 0.001,
    "fidelity": "hybrid",
    "shaper": "red",
    "shaper_params": (("max_p", 0.2),),
    "multipath": 2,
    "flowlet_gap_s": 0.05,
    "multipath_shaped": 1,
}

#: Knobs only legal alongside their optional group's switch (e.g.
#: ``shaper_params`` with ``shaper``), mapped to that switch: their
#: sensitivity is checked relative to a base with the switch on.
SWITCH_OF = {
    name: group[0] for group, _off in OPTIONAL_GROUPS for name in group[1:]
}
#: The multipath group's dependents (test_key_golden builds on them).
MULTIPATH_DEPENDENT = {name for name, switch in SWITCH_OF.items() if switch == "multipath"}


class TestDetectionKeyStability:
    def test_same_config_same_key(self):
        assert detection_cache_key(BASE) == detection_cache_key(
            ScenarioConfig(app="zoom", duration=8.0, seed=0)
        )

    def test_every_config_field_change_changes_key(self):
        base_key = detection_cache_key(BASE)
        fields = {f.name for f in dataclasses.fields(ScenarioConfig)}
        assert fields == set(FIELD_CHANGES), "keep FIELD_CHANGES exhaustive"
        for field, value in FIELD_CHANGES.items():
            switch = SWITCH_OF.get(field)
            if switch is not None:
                base = BASE.with_(**{switch: FIELD_CHANGES[switch]})
                changed = base.with_(**{field: value})
                assert detection_cache_key(changed) != detection_cache_key(base), field
                continue
            changed = BASE.with_(**{field: value})
            assert detection_cache_key(changed) != base_key, field

    def test_runner_knobs_change_key(self):
        base_key = detection_cache_key(BASE)
        assert detection_cache_key(BASE, modified=False) != base_key
        assert detection_cache_key(BASE, entropy=1) != base_key
        assert detection_cache_key(BASE, merge_flows=True) != base_key
        assert detection_cache_key(BASE, detectors=["other"]) != base_key
        assert detection_cache_key(BASE, fault_profile="flaky") != base_key
        assert detection_cache_key(BASE, schema_version=999) != base_key
        assert detection_cache_key(BASE, fingerprint="deadbeef") != base_key

    def test_detector_order_does_not_matter(self):
        assert detection_cache_key(BASE, detectors=["a", "b"]) == detection_cache_key(
            BASE, detectors=["b", "a"]
        )

    def test_kinds_do_not_collide(self):
        assert detection_cache_key(BASE) != wild_cache_key(
            "ISP1", BASE.app, BASE.seed
        )


class TestShaperKeyCompat:
    """The mechanism axis must not shift pre-shaper cache keys."""

    def test_default_shaper_key_matches_legacy_dict(self):
        from repro.store.serialize import config_from_dict, config_to_dict

        data = config_to_dict(BASE)
        assert "shaper" not in data
        assert "shaper_params" not in data
        # A record written before the shaper axis existed deserializes
        # to the same config, hence the same key.
        assert config_from_dict(data) == BASE
        assert detection_cache_key(config_from_dict(data)) == detection_cache_key(
            BASE
        )

    def test_shaper_round_trips_and_changes_key(self):
        from repro.store.serialize import config_from_dict, config_to_dict

        shaped = BASE.with_(shaper="red", shaper_params=(("max_p", 0.2),))
        data = config_to_dict(shaped)
        assert data["shaper"] == "red"
        assert config_from_dict(data) == shaped
        assert detection_cache_key(shaped) != detection_cache_key(BASE)

    def test_shaper_params_order_matters(self):
        a = BASE.with_(shaper="red", shaper_params=(("max_p", 0.2),))
        b = BASE.with_(shaper="red", shaper_params=(("max_p", 0.3),))
        assert detection_cache_key(a) != detection_cache_key(b)


class TestMultipathKeyCompat:
    """The multipath axis must not shift pre-multipath cache keys."""

    def test_default_multipath_key_matches_legacy_dict(self):
        from repro.store.serialize import config_from_dict, config_to_dict

        data = config_to_dict(BASE)
        assert "multipath" not in data
        assert "flowlet_gap_s" not in data
        assert "multipath_shaped" not in data
        # A record written before the multipath axis existed
        # deserializes to the same config, hence the same key.
        assert config_from_dict(data) == BASE
        assert detection_cache_key(config_from_dict(data)) == (
            detection_cache_key(BASE)
        )

    def test_multipath_round_trips_and_changes_key(self):
        from repro.store.serialize import config_from_dict, config_to_dict

        bundled = BASE.with_(
            multipath=4, flowlet_gap_s=0.02, multipath_shaped=2
        )
        data = config_to_dict(bundled)
        assert data["multipath"] == 4
        assert config_from_dict(data) == bundled
        assert detection_cache_key(bundled) != detection_cache_key(BASE)

    def test_every_multipath_knob_changes_key(self):
        base = BASE.with_(multipath=2)
        base_key = detection_cache_key(base)
        assert detection_cache_key(BASE.with_(multipath=4)) != base_key
        assert (
            detection_cache_key(base.with_(flowlet_gap_s=0.02)) != base_key
        )
        assert (
            detection_cache_key(base.with_(multipath_shaped=1)) != base_key
        )


class TestFaultProfileId:
    def test_none_and_empty_are_none(self):
        assert fault_profile_id(None) == "none"
        assert fault_profile_id("none") == "none"
        assert fault_profile_id(FaultProfile.none()) == "none"

    def test_spec_and_profile_agree(self):
        spec = "replay_abort=0.5,corrupt_loss=1.0:2"
        assert fault_profile_id(spec) == fault_profile_id(FaultProfile.parse(spec))

    def test_rule_order_normalized(self):
        a = fault_profile_id("replay_abort=0.5,corrupt_loss=0.25")
        b = fault_profile_id("corrupt_loss=0.25,replay_abort=0.5")
        assert a == b

    def test_probability_matters(self):
        assert fault_profile_id("replay_abort=0.5") != fault_profile_id(
            "replay_abort=0.25"
        )


class TestWildKey:
    def test_stability_and_sensitivity(self):
        base = wild_cache_key("ISP1", "netflix", 0)
        assert base == wild_cache_key("ISP1", "netflix", 0)
        assert wild_cache_key("ISP2", "netflix", 0) != base
        assert wild_cache_key("ISP1", "zoom", 0) != base
        assert wild_cache_key("ISP1", "netflix", 1) != base
        assert wild_cache_key("ISP1", "netflix", 0, sanity_check=True) != base
        assert wild_cache_key("ISP1", "netflix", 0, fidelity="hybrid") != base


class TestCodeFingerprint:
    def test_deterministic(self):
        assert code_fingerprint() == code_fingerprint()
        assert len(code_fingerprint()) == 16

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_CODE_FINGERPRINT", "pinned")
        code_fingerprint.cache_clear()
        try:
            assert code_fingerprint() == "pinned"
        finally:
            code_fingerprint.cache_clear()
