"""The whole system, end to end.

Builds a policy-routed synthetic internet, collects a month of
traceroutes, runs topology construction, then coordinates a complete
WeHeY test for a client whose ISP collectively throttles a video
service: topology lookup, simultaneous replays on the simulator,
differentiation confirmation, common-bottleneck detection, and
post-replay topology re-verification.

Run:  python examples/full_system.py
"""

import numpy as np

from repro.core.coordinator import CoordinationStatus, WeHeYCoordinator
from repro.experiments.scenarios import ScenarioConfig
from repro.experiments.wild import default_tdiff
from repro.inet import PolicyInternet
from repro.mlab.annotations import AnnotationDatabase
from repro.mlab.topology_construction import build_topology
from repro.mlab.traceroute import collect_month
from repro.mlab.verification import TopologyVerifier


def main():
    rng = np.random.default_rng(11)

    # -- the measurement platform -------------------------------------
    # Low aliasing keeps the walkthrough snappy: heavily aliased ISPs
    # mostly fail post-replay verification (run the coordinator tests
    # to see that path).
    internet = PolicyInternet(
        seed=0, rng=rng, clients_per_isp=5,
        icmp_block_fraction=0.25, alias_fraction=0.05,
    )
    annotations = AnnotationDatabase(internet)
    records = collect_month(internet, rng, tests_per_client=len(internet.servers))
    database = build_topology(records, annotations)
    print(f"topology database: {len(database)} suitable pairs")

    # -- the ground truth: a collectively throttling client ISP --------
    scenario = ScenarioConfig(app="netflix", limiter="common", seed=3)
    verifier = TopologyVerifier(internet, annotations, rng)
    coordinator = WeHeYCoordinator(
        internet, database, verifier, scenario, rng, default_tdiff()
    )

    # -- run tests until one completes ---------------------------------
    for client in internet.clients:
        report = coordinator.run_test(client.name, app="netflix")
        print(f"\nclient {client.name}: {report.status.value}")
        if report.status is CoordinationStatus.NO_TOPOLOGY:
            continue
        print(f"  server pair : {report.server_pair}")
        if report.status is CoordinationStatus.COMPLETED:
            loc = report.localization
            print(f"  outcome     : {loc.outcome.value}")
            print(f"  mechanism   : {loc.mechanism.value}")
            print(f"  reason      : {loc.reason}")
            break


if __name__ == "__main__":
    main()
