"""App trace-library statistical-shape tests."""

import numpy as np
import pytest

from repro.wehe.apps import APP_SPECS, TCP_APPS, UDP_APPS, make_trace


@pytest.fixture
def rng():
    return np.random.default_rng(29)


class TestUdpShapes:
    def test_talk_spurts_create_gap_structure(self, rng):
        trace = make_trace("whatsapp", 60.0, rng)
        times = np.array([t for t, _ in trace.schedule])
        gaps = np.diff(times)
        # On/off structure: some gaps far exceed the packetization
        # interval (off periods).
        interval = APP_SPECS["whatsapp"].packet_interval
        assert gaps.max() > 10 * interval
        assert np.median(gaps) < 2 * interval

    def test_size_mixture_respected(self, rng):
        spec = APP_SPECS["zoom"]
        trace = make_trace("zoom", 60.0, rng)
        sizes = {s for _, s in trace.schedule}
        expected = {size for size, _ in spec.packet_sizes}
        assert sizes <= expected
        assert len(sizes) == len(expected)

    def test_apps_have_distinct_rates(self, rng):
        rates = {
            app: make_trace(app, 60.0, rng).mean_rate_bps for app in UDP_APPS
        }
        assert len({round(r / 1e5) for r in rates.values()}) >= 3


class TestTcpShapes:
    def test_chunked_structure(self, rng):
        trace = make_trace("netflix", 30.0, rng)
        times = np.array([t for t, _ in trace.schedule])
        gaps = np.diff(times)
        # Chunk boundaries: a few large gaps near the chunk period.
        chunk_gaps = gaps[gaps > 0.5]
        assert len(chunk_gaps) >= 10
        assert np.median(chunk_gaps) == pytest.approx(
            APP_SPECS["netflix"].chunk_period, rel=0.5
        )

    def test_rate_scales_with_spec(self, rng):
        rates = {
            app: make_trace(app, 30.0, rng).mean_rate_bps for app in TCP_APPS
        }
        # Ordering of nominal rates is preserved in generated traces.
        nominal = sorted(TCP_APPS, key=lambda a: APP_SPECS[a].rate_bps)
        generated = sorted(TCP_APPS, key=rates.get)
        assert nominal[-1] == generated[-1]  # fastest app is fastest trace
