"""Scenario-configuration tests."""

import re

import numpy as np
import pytest

from repro.experiments.scenarios import (
    BACKGROUND_SHARES,
    CONGESTION_FACTORS,
    INPUT_RATE_FACTORS,
    QUEUE_FACTORS,
    RTT2_SWEEP,
    ScenarioConfig,
    congestion_grid,
    rtt_grid,
    severity_grid,
)
from repro.netsim.background import DEFAULT_MODULATION
from repro.netsim.topology import TopologyConfig


class TestScenarioConfig:
    def test_defaults_match_table2_bold(self):
        config = ScenarioConfig()
        assert config.input_rate_factor == INPUT_RATE_FACTORS[0] == 1.5
        assert config.queue_factor == QUEUE_FACTORS[0] == 0.5
        assert config.background_share == BACKGROUND_SHARES[0] == 0.5
        assert config.congestion_factor == CONGESTION_FACTORS[0] == 0.2
        assert config.rtt_1 == config.rtt_2 == 0.035

    def test_limiter_rate_scales_inversely_with_factor(self):
        soft = ScenarioConfig(input_rate_factor=1.3)
        hard = ScenarioConfig(input_rate_factor=2.5)
        assert hard.limiter_rate_bps < soft.limiter_rate_bps

    def test_noncommon_limiter_sees_half_load(self):
        common = ScenarioConfig(limiter="common")
        split = ScenarioConfig(limiter="noncommon")
        assert split.limiter_rate_bps < common.limiter_rate_bps

    def test_congestion_shrinks_noncommon_bandwidth(self):
        idle = ScenarioConfig(congestion_factor=0.2)
        jammed = ScenarioConfig(congestion_factor=1.15)
        assert jammed.noncommon_bandwidth_bps < idle.noncommon_bandwidth_bps

    def test_protocol_derived_from_app(self):
        assert ScenarioConfig(app="netflix").protocol == "tcp"
        assert ScenarioConfig(app="zoom").protocol == "udp"

    def test_with_functional_update(self):
        base = ScenarioConfig()
        changed = base.with_(rtt_2=0.120)
        assert changed.rtt_2 == 0.120
        assert base.rtt_2 == 0.035

    def test_rejects_unknown_app(self):
        with pytest.raises(ValueError):
            ScenarioConfig(app="friendster")

    def test_rejects_weak_factor_with_limiter(self):
        with pytest.raises(ValueError):
            ScenarioConfig(input_rate_factor=0.9)

    @pytest.mark.parametrize(
        "name",
        [
            "duration",
            "input_rate_factor",
            "queue_factor",
            "congestion_factor",
            "background_rate_bps",
        ],
    )
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"), 0, -1.0])
    def test_rejects_non_finite_or_non_positive_knobs(self, name, value):
        with pytest.raises(ValueError, match=name):
            ScenarioConfig(**{name: value})

    @pytest.mark.parametrize(
        "name, value",
        [
            ("tcp_background_flows", -1),
            ("tcp_background_flows", 2.5),
            ("tcp_background_flows", float("nan")),
            ("tcp_background_flows", float("inf")),
            ("overcount_rate", -0.1),
            ("overcount_rate", 1.0),
            ("overcount_rate", float("nan")),
            ("registration_jitter", -0.001),
            ("registration_jitter", float("nan")),
            ("registration_jitter", float("inf")),
            ("seed", -3),
            ("seed", 1.5),
            ("seed", float("nan")),
            ("seed", float("inf")),
        ],
    )
    def test_rejects_out_of_domain_background_and_loss_knobs(self, name, value):
        with pytest.raises(ValueError, match=name):
            ScenarioConfig(**{name: value})

    @pytest.mark.parametrize(
        "name, value",
        [
            ("tcp_background_flows", 0),
            ("tcp_background_flows", np.int64(2)),
            ("tcp_background_flows", 2.0),
            ("overcount_rate", -0.0),
            ("overcount_rate", False),
            ("overcount_rate", 0.99),
            ("registration_jitter", -0.0),
            ("registration_jitter", 0.001),
            ("background_rate_bps", np.int64(20_000_000)),
            ("seed", 0.0),
            ("seed", -0.0),
            ("seed", False),
            ("seed", np.int64(7)),
        ],
    )
    def test_accepts_in_domain_background_and_loss_knobs(self, name, value):
        assert getattr(ScenarioConfig(**{name: value}), name) == value

    @pytest.mark.parametrize("knobs", [
        {"multipath": 2.0},
        {"multipath": -0.0},
        {"multipath": 2, "multipath_shaped": 1.0},
        {"multipath": 2, "flowlet_gap_s": 0.05},
    ])
    def test_accepts_integral_multipath_knobs(self, knobs):
        assert ScenarioConfig(**knobs).multipath == knobs["multipath"]
        TopologyConfig(limiter="common", **knobs)

    @pytest.mark.parametrize("name", ["rtt_1", "rtt_2"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"), 0, -1.0])
    def test_rejects_non_finite_rtts(self, name, value):
        with pytest.raises(ValueError, match=name):
            ScenarioConfig(**{name: value})
        with pytest.raises(ValueError, match=name):
            TopologyConfig(**{name: value})

    @pytest.mark.parametrize("knobs", [
        {"shaper": "red", "fidelity": "hybrid"},
        {"limiter": "perflow", "shaper": "codel", "fidelity": "hybrid"},
        {"rtt_1": 0.003},
        {"limiter": None, "shaper": "red"},
        {"shaper_params": (("max_p", 0.2),)},
        {"multipath": 2, "fidelity": "hybrid"},
        {"multipath": 2, "multipath_shaped": 3},
        {"flowlet_gap_s": 0.01},
        {"multipath": 2.5},
        {"multipath": float("nan")},
        {"multipath": 2, "multipath_shaped": 1.5},
        {"multipath": 2, "flowlet_gap_s": float("nan")},
        {"multipath": 2, "flowlet_gap_s": float("inf")},
        {"shaper": "red", "shaper_params": (("nope", 1),)},
        {"shaper": "dual_tbf", "fidelity": "hybrid", "shaper_params": (("max_p", 0.2),)},
        {"limiter": "perflow", "shaper": "red", "shaper_params": (("nope", 1),)},
        {"limiter": "perflow", "shaper": "ecn", "shaper_params": (("nope", 1),)},
        {"limiter": "perflow", "shaper": "tbf", "shaper_params": (("max_p", 0.2),)},
    ])
    def test_rejects_unbuildable_device_knobs(self, knobs):
        # Rejected at construction, with the topology's own message:
        # both configs run the one device-knob validator.
        with pytest.raises(ValueError) as scenario_error:
            ScenarioConfig(**knobs)
        topology_knobs = {"limiter": "common", **knobs}
        with pytest.raises(ValueError) as topology_error:
            TopologyConfig(**topology_knobs)
        assert str(scenario_error.value) == str(topology_error.value)

    @pytest.mark.parametrize("knobs", [
        {"shaper": "red"},
        {"shaper": "red", "shaper_params": (("max_p", 0.2), ("seed", 3))},
        {"shaper": "dual_tbf", "fidelity": "hybrid", "shaper_params": (("peak_factor", 3.0),)},
        {"limiter": "perflow", "shaper": "red", "shaper_params": (("max_p", 0.2),)},
        {"limiter": "perflow", "shaper": "ecn", "shaper_params": (("max_p", 0.2), ("w_q", 0.1))},
        {"limiter": "noncommon", "shaper": "codel", "shaper_params": [["target", 0.01]]},
    ])
    def test_accepts_shaper_params_the_builder_takes(self, knobs):
        ScenarioConfig(**knobs)

    @pytest.mark.parametrize("limiter", ["common", "noncommon", "perflow"])
    @pytest.mark.parametrize("shaper", ["red", "ecn"])
    @pytest.mark.parametrize("ecn", [True, False])
    def test_ecn_is_a_mechanism_not_a_parameter(self, limiter, shaper, ecn):
        # "red" and "ecn" name the two devices; no parameter turns one
        # into the other.
        with pytest.raises(ValueError, match=rf"^bad parameters for qdisc '{shaper}': .*'ecn'"):
            ScenarioConfig(limiter=limiter, shaper=shaper, shaper_params=(("ecn", ecn),))

    @pytest.mark.parametrize("limiter", ["common", "noncommon"])
    @pytest.mark.parametrize("shaper", ["red", "ecn", "codel", "pie"])
    def test_aqm_at_hybrid_fidelity_names_the_shaper(self, limiter, shaper):
        message = f"shaper '{shaper}' has no hybrid implementation (AQMs are packet-only)"
        with pytest.raises(ValueError) as error:
            ScenarioConfig(limiter=limiter, shaper=shaper, fidelity="hybrid")
        assert str(error.value) == message

    @pytest.mark.parametrize("shaper, params, message", [
        ("red", (("max_p", 5.0),), "RED max_p must be in (0, 1]"),
        ("red", (("buffer_s", float("nan")),), "cannot convert float NaN to integer"),
        ("dual_tbf", (("peak_factor", 0.5),), "peak rate must exceed the committed rate"),
    ])
    def test_out_of_domain_shaper_param_fails_at_construction(self, shaper, params, message):
        # These constructed and failed mid-run, when the device was built.
        with pytest.raises(ValueError, match=re.escape(message)):
            ScenarioConfig(shaper=shaper, shaper_params=params)

    def test_misspelt_shaper_param_fails_at_construction(self):
        # It used to construct and fail mid-run, inside make_qdisc.
        with pytest.raises(ValueError, match=r"^bad parameters for qdisc 'red': .*'nope'"):
            ScenarioConfig(shaper="red", shaper_params=(("nope", 1),))

    @pytest.mark.parametrize("modulation", [
        "x",
        ((-1.0, 0.3, 0.8),),
        ((0.2, float("nan"), 0.8),),
        ((0.2, 0.3, 1.5),),
        ((0.2, 0.3),),
        ((float("inf"), 0.3, 0.8),),
        ((0.2, -0.1, 0.8),),
        5,
    ])
    def test_rejects_out_of_domain_modulation(self, modulation):
        with pytest.raises(ValueError, match="^background_modulation must be None or"):
            ScenarioConfig(background_modulation=modulation)

    @pytest.mark.parametrize("modulation", [
        None,
        (),
        DEFAULT_MODULATION,
        [[0.2, -0.0, 0.8]],
        ((0.2, 0.0, -1.0), (5.0, 0.3, 1.0)),
    ])
    def test_accepts_in_domain_modulation(self, modulation):
        # Stored as tuples of tuples, whatever sequences it came as.
        expected = None if modulation is None else tuple(map(tuple, modulation))
        assert ScenarioConfig(background_modulation=modulation).background_modulation == (
            expected
        )

    def test_list_modulation_hashes_and_keys_as_its_tuple_form(self):
        from repro.store import detection_cache_key

        listed = ScenarioConfig(background_modulation=[[0.2, 0.3, 0.8]])
        tupled = ScenarioConfig(background_modulation=((0.2, 0.3, 0.8),))
        assert listed.background_modulation == ((0.2, 0.3, 0.8),)
        assert listed == tupled
        assert hash(listed) == hash(tupled)
        assert detection_cache_key(listed, fingerprint="f") == detection_cache_key(
            tupled, fingerprint="f"
        )

    def test_rtt_sweep_matches_paper(self):
        assert RTT2_SWEEP == (0.010, 0.015, 0.025, 0.035, 0.060, 0.120)


class TestSeverityGrid:
    def test_grid_size(self):
        cells = list(severity_grid("zoom", seeds=range(2)))
        assert len(cells) == len(INPUT_RATE_FACTORS) * len(QUEUE_FACTORS) * 2

    def test_grid_covers_all_combinations(self):
        cells = list(severity_grid("netflix", seeds=[0]))
        combos = {(c.input_rate_factor, c.queue_factor) for c in cells}
        assert len(combos) == len(INPUT_RATE_FACTORS) * len(QUEUE_FACTORS)


@pytest.mark.parametrize(
    "grid", [severity_grid, rtt_grid, congestion_grid],
    ids=lambda grid: grid.__name__,
)
def test_grid_takes_one_shot_seed_iterables(grid):
    # Every outer cell reuses the seeds, so a generator must not be
    # used up by the first one.
    from_generator = list(grid("netflix", (seed for seed in range(3))))
    assert from_generator == list(grid("netflix", range(3)))
