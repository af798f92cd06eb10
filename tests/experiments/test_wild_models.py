"""Wild ISP model-catalogue sanity tests."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.experiments.wild import WILD_ISPS, ZOO_ISPS, isp_model

_PRINT_ENTROPY = (
    "from repro.experiments.wild import WildReplayService, isp_model\n"
    "service = WildReplayService(isp_model('ISP1'), 'netflix', seed=7)\n"
    "print(service._seed_seq.entropy)\n"
)


def _wild_entropy(hash_seed):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(repro.__file__).parents[1])
    env["PYTHONHASHSEED"] = hash_seed
    proc = subprocess.run(
        [sys.executable, "-c", _PRINT_ENTROPY],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    return proc.stdout


class TestIspCatalogue:
    def test_five_isps_modelled(self):
        assert len(WILD_ISPS) == 5
        assert set(WILD_ISPS) == {"ISP1", "ISP2", "ISP3", "ISP4", "ISP5"}

    def test_only_isp5_has_delayed_trigger(self):
        for name, model in WILD_ISPS.items():
            if name == "ISP5":
                assert model.trigger_bytes is not None
                assert model.trigger_jitter > 0
            else:
                assert model.trigger_bytes is None

    def test_throttle_rates_are_video_tier(self):
        # "DVD quality (480p)"-style plans: single-digit Mb/s.
        for model in WILD_ISPS.values():
            assert 1e6 <= model.throttle_rate_bps <= 10e6

    def test_rtts_are_cellular(self):
        for model in WILD_ISPS.values():
            assert 0.02 <= model.rtt <= 0.2

    def test_queue_factors_span_policing_and_shaping(self):
        factors = {model.queue_factor for model in WILD_ISPS.values()}
        assert min(factors) <= 0.25  # policer-like
        assert max(factors) >= 1.0  # shaper-like

    def test_model_is_frozen(self):
        with pytest.raises(AttributeError):
            WILD_ISPS["ISP1"].rtt = 0.5

    def test_table1_isps_keep_the_paper_mechanism(self):
        # The paper reproduction sweeps must stay on the TBF policer.
        for model in WILD_ISPS.values():
            assert model.shaper is None
            assert model.shaper_params == ()


class TestZooCatalogue:
    def test_zoo_is_disjoint_from_table1(self):
        assert not set(ZOO_ISPS) & set(WILD_ISPS)

    def test_every_zoo_shaper_is_registered(self):
        from repro.netsim.qdisc import qdisc_spec

        for model in ZOO_ISPS.values():
            assert model.shaper is not None
            spec = qdisc_spec(model.shaper)  # raises if unregistered
            assert spec.packet is not None

    def test_zoo_covers_aqm_two_rate_and_conditional(self):
        shapers = {model.shaper for model in ZOO_ISPS.values()}
        assert {"red", "codel", "pie", "ecn", "dual_tbf", "conditional"} <= shapers

    def test_zoo_params_build_devices(self):
        from repro.netsim.qdisc import make_qdisc, qdisc_spec

        for model in ZOO_ISPS.values():
            params = dict(model.shaper_params)
            if qdisc_spec(model.shaper).seeded:
                params["seed"] = 0
            device = make_qdisc(
                model.shaper, rate_bps=model.throttle_rate_bps, **params
            )
            assert len(device) == 0

    def test_isp_model_looks_up_both_catalogues(self):
        assert isp_model("ISP1") is WILD_ISPS["ISP1"]
        assert isp_model("ZOO-RED") is ZOO_ISPS["ZOO-RED"]
        with pytest.raises(KeyError, match="unknown ISP"):
            isp_model("ZOO-FQ")


class TestZooService:
    def test_zoo_isp_throttles_target_app(self):
        # A zoo ISP's replay service must actually shape: the original
        # replay runs well below the line rate while the control (bit-
        # inverted) replay escapes the classifier.
        from repro.experiments.wild import WildReplayService
        from repro.wehe.apps import make_trace
        from repro.wehe.traces import bit_invert

        service = WildReplayService(isp_model("ZOO-RED"), "netflix", seed=0)
        trace = make_trace("netflix", service.duration, service._trace_rng)
        service.single_replay(trace)
        original = service.last_single_handle.mean_throughput()
        service.single_replay(bit_invert(trace))
        control = service.last_single_handle.mean_throughput()
        assert original < 0.8 * control


class TestWildSeeding:
    def test_replays_do_not_depend_on_the_string_hash_salt(self):
        # str hashes are salted per process; a wild test's random
        # streams must come from (isp, seed) alone.
        assert _wild_entropy("1") == _wild_entropy("2")
