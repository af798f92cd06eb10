"""A scenario constructs exactly when its topology builds.

For every registered mechanism at every limiter placement and fidelity,
with no parameters, with each parameter its class and its sizing rule
take, and with each placement knob given again as a parameter,
``ScenarioConfig`` either rejects the knobs with ``ValueError``, or the
Figure-1 topology builds and its limiters carry packets.  A rejected
case must also fail to build when the validation is skipped, so the
validator rejects nothing the simulator could run.
"""

import dataclasses
import inspect

import pytest

from repro.experiments.scenarios import ScenarioConfig
from repro.netsim import topology as topology_module
from repro.netsim.engine import Simulator
from repro.netsim.packet import DATA, Packet
from repro.netsim.qdisc import qdisc_spec, registered_qdiscs
from repro.netsim.topology import FIDELITIES, FigureOneTopology, TopologyConfig

PLACEMENTS = ("common", "noncommon", "perflow")

#: The sizing knobs a placement passes to ``build_device``, with values
#: for a config that repeats them as parameters.
KNOB_VALUES = {"rate_bps": 1e6, "rtt_s": 0.035, "queue_factor": 0.5, "fifo_capacity": 500_000}


def _parameters(name):
    """``(name, value)`` for each parameter of the mechanism's class and
    sizing rule, at its default (a required one gets a stand-in)."""
    spec = qdisc_spec(name)
    params = {}
    for part in (spec.packet, spec.sizing):
        if part is None:
            continue
        for parameter in inspect.signature(part).parameters.values():
            if parameter.kind in (parameter.VAR_POSITIONAL, parameter.VAR_KEYWORD):
                continue
            default = parameter.default
            params.setdefault(parameter.name, 1e6 if default is parameter.empty else default)
    return list(params.items())


def _cases():
    for name in registered_qdiscs():
        param_sets = [()]
        param_sets += [(pair,) for pair in _parameters(name)]
        param_sets += [(pair,) for pair in KNOB_VALUES.items()]
        for placement in PLACEMENTS:
            for fidelity in FIDELITIES:
                for params in dict.fromkeys(param_sets):
                    yield name, placement, fidelity, params


def _case_id(case):
    name, placement, fidelity, params = case
    return "-".join([name, placement, fidelity] + [key for key, _ in params])


def _topology(knobs):
    """The topology the runner builds for a config with ``knobs``."""
    config = TopologyConfig(**knobs)
    return FigureOneTopology(Simulator(), config)


def _limiters(topology):
    if topology.config.limiter == "noncommon":
        return [link.qdisc for link in topology.noncommon_links]
    return list(topology.limiter_qdiscs)


def _carry(qdisc):
    """Two marked flows in, then drain: per-flow buckets build lazily."""
    now = 0.0
    for seq in range(6):
        qdisc.enqueue(Packet(f"f{seq % 2}", DATA, seq, 1500, dscp=1), now)
    for _ in range(100):
        packet, wake = qdisc.dequeue(now)
        if packet is None:
            if wake is None:
                break
            now = wake
    assert len(qdisc) == 0


@pytest.mark.parametrize("case", list(_cases()), ids=_case_id)
def test_constructs_exactly_when_the_topology_builds(case, monkeypatch):
    name, placement, fidelity, params = case
    knobs = {
        "limiter": placement,
        "fidelity": fidelity,
        "shaper": name,
        "shaper_params": params,
    }
    try:
        config = ScenarioConfig(**knobs)
    except ValueError:
        monkeypatch.setattr(topology_module, "validate_device_knobs", lambda *a, **k: None)
        with pytest.raises((TypeError, ValueError)):
            for qdisc in _limiters(_topology(knobs)):
                _carry(qdisc)
        return
    shared = {
        field.name: getattr(config, field.name)
        for field in dataclasses.fields(TopologyConfig)
        if hasattr(config, field.name)
    }
    for qdisc in _limiters(_topology({**shared, "shaper_seed": config.seed})):
        _carry(qdisc)
