"""Tests for the simulation clock, formatting helpers and deterministic RNG seeds."""

from __future__ import annotations

import pytest

from repro.utils.clock import SimulationClock
from repro.utils.rng import derive_seed, rng_from_seed
from repro.utils.sizes import format_bytes, format_duration, format_rate


class TestSimulationClock:
    def test_starts_at_given_time(self):
        assert SimulationClock(10.0).now == 10.0

    def test_advance_accumulates(self):
        clock = SimulationClock()
        clock.advance(5.0)
        clock.advance(2.5)
        assert clock.now == 7.5

    def test_negative_advance_raises(self):
        with pytest.raises(ValueError):
            SimulationClock().advance(-1.0)

    def test_advance_to_only_moves_forward(self):
        clock = SimulationClock(100.0)
        clock.advance_to(50.0)
        assert clock.now == 100.0
        clock.advance_to(150.0)
        assert clock.now == 150.0

    def test_reset_clears_state(self):
        clock = SimulationClock()
        clock.advance(9.0)
        clock.reset()
        assert clock.now == 0.0


class TestFormatting:
    def test_format_bytes_units(self):
        assert format_bytes(512) == "512 B"
        assert "KiB" in format_bytes(4096)
        assert "GiB" in format_bytes(3 * 1024**3)
        assert "TiB" in format_bytes(2 * 1024**4)

    def test_format_duration_units(self):
        assert "us" in format_duration(5e-6)
        assert "ms" in format_duration(0.002)
        assert "s" in format_duration(12.0)
        assert "min" in format_duration(600)
        assert "h" in format_duration(10000)

    def test_format_rate(self):
        assert format_rate(2 * 1024**2).endswith("/s")


class TestRng:
    def test_derive_seed_is_stable(self):
        assert derive_seed("cesm", "CLDHGH", 3) == derive_seed("cesm", "CLDHGH", 3)

    def test_derive_seed_differs_by_part(self):
        assert derive_seed("a", 1) != derive_seed("a", 2)

    def test_rng_from_seed_reproducible(self):
        a = rng_from_seed(42).normal(size=5)
        b = rng_from_seed(42).normal(size=5)
        assert (a == b).all()

    def test_rng_from_string_seed(self):
        a = rng_from_seed("cesm", "field").normal(size=3)
        b = rng_from_seed("cesm", "field").normal(size=3)
        assert (a == b).all()
