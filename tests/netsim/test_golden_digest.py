"""Golden digests: the byte-level output of pinned cells, across commits.

``test_determinism`` compares two runs of the same code.  This file pins
the SHA-256 of each cell's raw outputs -- throughput samples, send and
loss time streams, the minimum RTT and the canonical record line -- so a
change to the simulator that moves any of them by one bit fails here,
even when it is deterministic.

numpy promises no stable Generator streams across versions, so the
digests hold only for the numpy ``major.minor`` they were made with;
on any other the tests skip.  To re-pin after an intended behaviour
change, print ``cell_digest(...)`` for each cell and paste the values.
"""

import hashlib

import numpy as np
import pytest

from repro.experiments import runner
from repro.experiments.scenarios import ScenarioConfig
from repro.experiments.wild import WildReplayService, isp_model
from repro.netsim.bbr import BbrSender
from repro.store.serialize import record_line
from repro.wehe import replay
from repro.wehe.apps import make_trace

#: numpy ``major.minor`` the digests below were generated with.
GOLDEN_NUMPY = "2.4"
DURATION = 5.0
SEED = 0

pytestmark = pytest.mark.skipif(
    ".".join(np.__version__.split(".")[:2]) != GOLDEN_NUMPY,
    reason=(
        f"golden digests were made with numpy {GOLDEN_NUMPY}; Generator "
        f"streams are not promised stable across numpy versions "
        f"(running {np.__version__})"
    ),
)


def _floats(values):
    return np.asarray(values, dtype=np.float64).tobytes()


def _fold(sha, result):
    for samples in (result.samples_1, result.samples_2):
        sha.update(_floats(samples))
    for m in (result.measurements_1, result.measurements_2):
        sha.update(_floats(m.send_times))
        sha.update(_floats(m.loss_times))
        sha.update(repr(float(m.rtt)).encode())


def cell_digest(app, limiter, fidelity, shaper=None, shaper_params=()):
    """SHA-256 of one 5 s detection cell's replay outputs and record."""
    config = ScenarioConfig(
        app=app,
        limiter=limiter,
        duration=DURATION,
        seed=SEED,
        fidelity=fidelity,
        shaper=shaper,
        shaper_params=shaper_params,
    )
    captured = []
    replay = runner.NetsimReplayService.simultaneous_replay

    def capture(service, trace):
        result = replay(service, trace)
        captured.append(result)
        return result

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(runner.NetsimReplayService, "simultaneous_replay", capture)
        record = runner.run_detection_experiment(config)
    (result,) = captured
    sha = hashlib.sha256()
    _fold(sha, result)
    sha.update(record_line(record).encode())
    return sha.hexdigest()


def wild_digest(isp_name, app, fidelity, sanity_check=False):
    """SHA-256 of one 5 s wild-ISP single plus simultaneous replay."""
    service = WildReplayService(
        isp_model(isp_name),
        app,
        seed=SEED,
        duration=DURATION,
        sanity_check=sanity_check,
        fidelity=fidelity,
    )
    trace = make_trace(app, DURATION, service._trace_rng)
    sha = hashlib.sha256()
    sha.update(_floats(service.single_replay(trace)))
    _fold(sha, service.simultaneous_replay(trace))
    return sha.hexdigest()


GOLDEN_CELLS = {
    ("zoom", "common", "packet", None): (
        "0dd68e99cb12c5f6a242c1ddaa64804d95635aaf5f3e2863b43c82751e3f0856"
    ),
    ("zoom", "noncommon", "packet", None): (
        "3f90c3dca29a351192e8667b8f952714e60dd30afb82855fd6fff0557903e4af"
    ),
    ("netflix", "common", "packet", None): (
        "ef2f573fdc3817be5af1e622cdb580df1c0c678fce3397bcee0b15dc5793eb3e"
    ),
    ("netflix", "noncommon", "packet", None): (
        "e65e63459c7981d124bdf4579abc9c283b70b15447edc3853ba34f130bb20b65"
    ),
    ("zoom", "common", "hybrid", None): (
        "ae56dac92a2c5ec7b286518ba944cae1379aea2ccaf977a1ab5d8adab532fa39"
    ),
    ("zoom", "noncommon", "hybrid", None): (
        "3f3522e5f935adf47b93ec20aaf89d3f43af0d08aca880edcf4305037275f19e"
    ),
    ("netflix", "common", "hybrid", None): (
        "54cd43af81971595d95ae1ad255b2315aad13f9c7c34e6f3b6be0f1805726006"
    ),
    ("netflix", "noncommon", "hybrid", None): (
        "072a9b301269098c546873f6793b9a51668af423e168149f0f8172bea2b6b404"
    ),
    ("netflix", "common", "packet", "codel"): (
        "1c3750005b535bf8579d2f32f48b471624a5967ef4a7f9402458952a83dbf1a3"
    ),
    # One cell per fluid twin, at both fidelities.  Netflix 5 s cells
    # throttle on every mechanism here (the conditional trigger trips
    # and the dual bucket defers on its peak rate); zoom's do not.
    ("netflix", "perflow", "packet", None): (
        "6a69a83e8e0d8c58859bb644f0e783d65ad54520bad138699dc3dde75060def2"
    ),
    ("netflix", "perflow", "hybrid", None): (
        "d86a6c89d32991acb2c0a175b6cfe4115de1b68e3cb2f0d1cb9dab1a055733d1"
    ),
    ("netflix", "common", "packet", "dual_tbf"): (
        "5f437049b5ed37c0868941f22fd60eea70c67b04cc8e37542d924dca4a14004d"
    ),
    ("netflix", "common", "hybrid", "dual_tbf"): (
        "391a8632a988aedd8f15153715a65d13b20ac6f250460cea08f908e719650644"
    ),
    ("netflix", "common", "packet", "conditional"): (
        "b756ac6f6fa18196e2366469c8ecad36b75a0452004e5cd492c4e46518a73249"
    ),
    ("netflix", "common", "hybrid", "conditional"): (
        "ba2bf2e3d3c1a9b0a52a4a736c585094628dc34bbc770ebb15c2eefe6eadcf43"
    ),
    # The seeded AQMs: one derived seed on the common device, two on the
    # noncommon links, one per flow bucket under per-flow placement.
    ("netflix", "common", "packet", "red"): (
        "7e6f17844a78c4ca747503d93c91b4ea43e88b3bfa0250599f67d7adba7e2430"
    ),
    ("netflix", "common", "packet", "ecn"): (
        "f448b9897232f27b0aff19f071b9c9616e50d02562676b066201eeaa59270eba"
    ),
    ("netflix", "common", "packet", "pie"): (
        "226960397c05cf008abda8d9c8ce1bd4c30ac80af72bbd6060768511e46c1f95"
    ),
    ("netflix", "noncommon", "packet", "red"): (
        "60c2b23dc2fc0043ad53eba541d8aa4715c720ef49a4d1faf37a08e5889ca9fe"
    ),
    ("netflix", "perflow", "packet", "red"): (
        "1aea858acff26693bde0d84398a0d912a81f9212791e24beed71fe695a2234dd"
    ),
    ("netflix", "perflow", "packet", "ecn"): (
        "e51e5bf9987cb83f75d4d0789bd8984da736b4d4ed13433ed6e8222d419e1b92"
    ),
    # One non-default parameter per sizing rule.
    ("netflix", "common", "packet", "red", (("buffer_s", 0.1),)): (
        "2b21da18c284b83b4b8072cbf4641e9c6aecb4c3eab86154893dac3f13b469f9"
    ),
    ("netflix", "common", "packet", "dual_tbf", (("boost_bytes", 500_000),)): (
        "85d5b0dbdb0b15567500148a9dbff345280866aaee18d2b18c98e6628cea96c1"
    ),
    ("netflix", "common", "packet", "conditional", (("trigger_after_s", 2.0),)): (
        "c8021289850e07d19db4e9b97a83616619928825ce72f56fc339262921e798e7"
    ),
}

GOLDEN_WILD = {
    ("ISP1", "netflix", "hybrid"): (
        "beab2991a85850e09ae0e29c8ea99b6cab4e573849f6edb9c8a34761343f0dec"
    ),
    ("ISP1", "netflix", "packet"): (
        "caae789bf0afc2de586c9e1944750ee434301cabc294ece3c053743ee1319ae8"
    ),
    # ISP5's delayed-trigger classifier at both fidelities.
    ("ISP5", "netflix", "packet"): (
        "81ec6a0bc5727775d7657b8ef527fdaebdf8e4729bcf5ea25967cb04f732a7d7"
    ),
    ("ISP5", "netflix", "hybrid"): (
        "df340a54317c3d306c325d5bf06064fef36bf2ae886a54ea01eec412e96aa5c4"
    ),
    ("ISP1", "zoom", "hybrid"): (
        "cb166d32d6009a0802c9147f4b4a171dac0ee73147ef7ecec14e960dc6adb5c1"
    ),
    ("ZOO-DUAL", "netflix", "packet"): (
        "dc9f305fa49441820ef848816d3c667fd4f7e6427438eeedfa051101955d857f"
    ),
    ("ZOO-DUAL", "netflix", "hybrid"): (
        "9b7f532197c515c93425990d61318d63265342ae0d2500325cd6594a5a9875b2"
    ),
    # AQMs have no fluid twin, so packet only.
    ("ZOO-CODEL", "netflix", "packet"): (
        "e9c9b405b50b77b9fad4c0594c26a4d2c63f4eb1ba31a221cb43799330b2ab8b"
    ),
    # A fourth element of True runs the sanity-check third replay.
    ("ISP1", "netflix", "packet", True): (
        "f00de6fb287520a97fa5f85f1995e0d284ae8dd0b78f9ac7d08ce6061e1f6fbd"
    ),
}


def _cell_id(cell):
    parts = [str(p) for p in cell[:4] if p]
    parts += [f"{name}={value}" for name, value in (cell[4] if len(cell) > 4 else ())]
    return "-".join(parts)


@pytest.mark.parametrize("cell", list(GOLDEN_CELLS), ids=_cell_id)
def test_detection_cell_digest(cell):
    assert cell_digest(*cell) == GOLDEN_CELLS[cell]


@pytest.mark.parametrize(
    "cell",
    list(GOLDEN_WILD),
    ids=lambda c: "-".join(c[:3]) + ("-sanity" if c[3:] else ""),
)
def test_wild_cell_digest(cell):
    assert wild_digest(*cell) == GOLDEN_WILD[cell]


#: Detection cells replayed by ``BbrSender``, patched in as the
#: ``ablations`` claim does.  BBR paces by its own ``_pacing_interval``,
#: so these pin that the TCP send loop still asks the subclass.
GOLDEN_BBR = {
    ("netflix", "common", "packet"): (
        "d2bbc76c2c262da0d43323bcdf9ec8811a0ac147e6aa909bb21b3c4a72aa6745"
    ),
    ("netflix", "common", "hybrid"): (
        "1c89e41bf0823a6e3a1f172bb25479eb3acf78fbd95e53abb8d44e47a41931ee"
    ),
}


@pytest.mark.parametrize("cell", list(GOLDEN_BBR), ids="-".join)
def test_bbr_cell_digest(cell, monkeypatch):
    monkeypatch.setattr(replay, "TcpSender", BbrSender)
    assert cell_digest(*cell) == GOLDEN_BBR[cell]
