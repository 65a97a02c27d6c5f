"""Tests for repro.util.units."""

from repro.util.units import mbps


class TestRateConstructors:
    def test_mbps(self):
        assert mbps(32) == 32_000_000

    def test_rates_accept_floats(self):
        assert mbps(0.5) == 500_000
