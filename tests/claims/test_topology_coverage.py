"""The topology claim's Section-3.3 coverage leg, pinned exactly.

``COMPLETE_BAND`` and ``MIN_SUITABLE`` only bound the leg; pinning its
four values makes any change to the world model, the traceroute model
or topology construction that moves them a deliberate one.
"""

from repro.claims import topology


def test_coverage_values_are_pinned():
    assert topology.measure_coverage() == {
        "traceroutes": 564,
        # 53 of 96 clients have a complete traceroute (paper: 52%) ...
        "complete_fraction": 53 / 96,
        # ... and 40 of those 53 a suitable topology (paper: 74%).
        "suitable_fraction": 40 / 53,
        "entries": 343,
    }

