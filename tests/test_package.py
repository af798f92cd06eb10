"""Package-level tests: public API surface and imports."""

import importlib

import pytest


PUBLIC_MODULES = [
    "repro",
    "repro.cli",
    "repro.core",
    "repro.core.coordinator",
    "repro.core.localizer",
    "repro.core.loss_correlation",
    "repro.core.packet_pair",
    "repro.core.throughput_comparison",
    "repro.core.tomography",
    "repro.experiments",
    "repro.experiments.metrics",
    "repro.experiments.runner",
    "repro.experiments.scenarios",
    "repro.experiments.wild",
    "repro.inet.internet",
    "repro.mlab",
    "repro.mlab.annotations",
    "repro.mlab.tables",
    "repro.mlab.topology_construction",
    "repro.mlab.traceroute",
    "repro.mlab.verification",
    "repro.netsim",
    "repro.netsim.background",
    "repro.netsim.bbr",
    "repro.netsim.capture",
    "repro.netsim.engine",
    "repro.netsim.link",
    "repro.netsim.packet",
    "repro.netsim.path",
    "repro.netsim.per_flow",
    "repro.netsim.queues",
    "repro.netsim.tcp",
    "repro.netsim.token_bucket",
    "repro.netsim.topology",
    "repro.netsim.udp",
    "repro.stats",
    "repro.stats.empirical",
    "repro.stats.ks",
    "repro.stats.montecarlo",
    "repro.stats.mwu",
    "repro.stats.spearman",
    "repro.stats.special",
    "repro.wehe",
    "repro.wehe.apps",
    "repro.wehe.corpus",
    "repro.wehe.detection",
    "repro.wehe.loss_measurement",
    "repro.wehe.replay",
    "repro.wehe.traces",
]


@pytest.mark.parametrize("module_name", PUBLIC_MODULES)
def test_module_imports(module_name):
    module = importlib.import_module(module_name)
    assert module.__doc__, f"{module_name} lacks a module docstring"


def test_version():
    import repro

    assert repro.__version__


def test_netsim_public_api():
    import repro.netsim as netsim

    for name in netsim.__all__:
        assert hasattr(netsim, name)


def test_stats_public_api():
    import repro.stats as stats

    for name in stats.__all__:
        assert hasattr(stats, name)


def test_core_public_api():
    import repro.core as core

    for name in core.__all__:
        assert hasattr(core, name)
