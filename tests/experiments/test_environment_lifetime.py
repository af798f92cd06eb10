"""Replay services free a retired environment when the next one starts.

An environment is a reference cycle, so only the cyclic collector frees
it.  Left to the collector's own schedule, dead environments pile up and
set the peak memory; each service collects when it retires one.  These
tests pin that without calling ``gc`` themselves.
"""

import weakref

from repro.experiments.runner import NetsimReplayService
from repro.experiments.scenarios import ScenarioConfig
from repro.experiments.wild import WildReplayService, isp_model
from repro.wehe.apps import make_trace


def test_netsim_service_frees_the_previous_simulator():
    config = ScenarioConfig(app="netflix", limiter="common", duration=5.0, seed=0)
    service = NetsimReplayService(config)
    trace = make_trace("netflix", 5.0, service._trace_rng)
    service.simultaneous_replay(trace)
    first = weakref.ref(service.last_environment.sim)
    service.simultaneous_replay(trace)
    assert first() is None
    assert service.last_environment.sim is not None


def test_wild_service_frees_the_previous_simulator():
    service = WildReplayService(
        isp_model("ISP1"), "netflix", seed=0, duration=5.0, fidelity="hybrid"
    )
    trace = make_trace("netflix", 5.0, service._trace_rng)
    service.single_replay(trace)
    first = weakref.ref(service.last_single_handle.sender.sim)
    service.simultaneous_replay(trace)
    assert first() is None
