"""Golden admission decisions: the service core's output, pinned across commits.

``test_loadgen`` checks that two runs of the same scenario decide alike.
This file pins the SHA-256 of each run's ``core.decision_log`` and of
its response stream, so a change to admission, queueing, dispatch or
the deadline sweeper that moves one decision fails here, even when it
is deterministic.

Arrival traces come from numpy Generators, whose streams are promised
stable only within a numpy ``major.minor``; on any other the tests skip.
The cache-key prefix in ``cached`` decisions depends on the code
fingerprint, which is pinned, so a simulator edit moves no digest.  To
re-pin after an intended behaviour change, print ``run_digests(...)``
for each case and paste the values.
"""

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from repro.faults.chaos import ServiceChaosProfile
from repro.loadgen.arrivals import generate_trace
from repro.loadgen.driver import VirtualService
from repro.loadgen.scenarios import MEAN_SERVICE_S, SCENARIOS, build_scenario
from repro.service.core import ServiceCore
from repro.service.engine import SyntheticEngine
from repro.store import keys

#: numpy ``major.minor`` the digests below were generated with.
GOLDEN_NUMPY = "2.4"
DURATION_S = 60.0
SEED = 7

pytestmark = pytest.mark.skipif(
    ".".join(np.__version__.split(".")[:2]) != GOLDEN_NUMPY,
    reason=(
        f"golden digests were made with numpy {GOLDEN_NUMPY}; arrival traces "
        f"are not promised stable across numpy versions (running {np.__version__})"
    ),
)

#: Case name -> ``(scenario, chaos profile or None, deadline_s override)``.
#: No stock scenario lets a queued request expire, so one case gives
#: every tenant a 1 s deadline to run the deadline sweeper hard.
CASES = {name: (name, None, None) for name in SCENARIOS}
CASES["sustained2x+chaos"] = ("sustained2x", ServiceChaosProfile.smoke(seed=23), None)
CASES["sustained2x+1s_deadlines"] = ("sustained2x", None, 1.0)


def _sha(obj):
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()


def run_case(case):
    """``(LoadResult, ServiceCore)`` of one case.

    The run is :func:`repro.loadgen.scenarios.run_scenario`'s, with
    the deadline override applied to every tenant.
    """
    name, chaos, deadline_s = CASES[case]
    tenants, rate_fn, config = build_scenario(name, duration_s=DURATION_S)
    if deadline_s is not None:
        tenants = [dataclasses.replace(load, deadline_s=deadline_s) for load in tenants]
    trace = generate_trace(tenants, DURATION_S, SEED, rate_fn=rate_fn)
    core = ServiceCore(config)
    engine = SyntheticEngine(mean_service_s=MEAN_SERVICE_S, jitter=0.4, seed=SEED)
    return VirtualService(core, engine, chaos=chaos).run(trace), core


def run_digests(case):
    """``(decision-log digest, response-stream digest)`` of one case."""
    result, core = run_case(case)
    responses = [
        (when, response.id, response.status, response.reason, response.cached, delivered)
        for when, response, delivered in result.completions
    ]
    return _sha(core.decision_log), _sha(responses)


GOLDEN = {
    "ramp": (
        "99c570b5b664e125cc10918295576d5516ddc2228ec635afc0f7815758741cf9",
        "fb9c6cb67f577329f7979cbfd8f418fffa19e3b0330363f404c65bde2bd4be5f",
    ),
    "spike": (
        "94c80505e8e1660380387b55432ed49f732195212d85f6ada98346dfbc02849d",
        "21c1b0a020989df499b117709af73bedd717ba4b4601cab4e7f0f45c4682528f",
    ),
    "sustained2x": (
        "922b4194717475b2bf4c03edd8b0cb65894254487f904bd5d44dd258063a765f",
        "be75b75af0bbd5628bc22caee8189caf6d341d6d1ef7734495915bdec49315e3",
    ),
    "onehot": (
        "1376a54925bd7fe80bbaf90b4306312538536f85d68fafea0119d1f67c5009d7",
        "02088917783c4f972a9312264383d8d493ff0fcd280f236499eb832a4cfa1c1a",
    ),
    "baseline": (
        "bef9c3a8bbc7d931dbabaf17b59a501aeff13616a7b841d7c7c22b10e0193125",
        "7a56d429d225e974f261ebae9940c8b035d87e0b70bea1a0e2caa81fd815f080",
    ),
    "sustained2x+chaos": (
        "a458ed77c72b841ac5bf6e78d823a38ce3bb876a02e2764daee7efffb247b48f",
        "19c48f1328bd11c17d6979127d3d7ae88acf00d62eaaf15f24fe3b858480fac5",
    ),
    "sustained2x+1s_deadlines": (
        "00388e75a3abeba7b8d5184f82951ea07d47a4c03af769f4a6ef2cb8e2b106bf",
        "026878d57784657e3e404be341799a765310bd4f4617859a9c29f1bf990602c5",
    ),
}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_decisions_match_pinned(case, monkeypatch):
    monkeypatch.setattr(keys, "code_fingerprint", lambda: "golden")
    assert run_digests(case) == GOLDEN[case]


def test_every_case_is_pinned():
    assert sorted(GOLDEN) == sorted(CASES)
