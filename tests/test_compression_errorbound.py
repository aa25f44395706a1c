"""Tests for repro.compression.errorbound."""

from __future__ import annotations

import numpy as np
import pytest

from repro.compression import ErrorBound, ErrorBoundMode
from repro.errors import ConfigurationError


class TestErrorBoundMode:
    def test_parse_strings(self):
        assert ErrorBoundMode.parse("abs") is ErrorBoundMode.ABS
        assert ErrorBoundMode.parse("REL") is ErrorBoundMode.REL
        assert ErrorBoundMode.parse("psnr") is ErrorBoundMode.PSNR

    def test_parse_passthrough(self):
        assert ErrorBoundMode.parse(ErrorBoundMode.ABS) is ErrorBoundMode.ABS

    def test_parse_invalid_raises(self):
        with pytest.raises(ConfigurationError):
            ErrorBoundMode.parse("bogus")


class TestErrorBound:
    def test_absolute_bound_passthrough(self):
        data = np.array([0.0, 100.0])
        bound = ErrorBound.absolute(0.5)
        assert bound.absolute_for(data) == 0.5

    def test_relative_bound_scales_with_range(self):
        data = np.array([-50.0, 50.0])
        bound = ErrorBound.relative(1e-2)
        assert bound.absolute_for(data) == pytest.approx(1.0)

    def test_relative_bound_on_constant_field(self):
        data = np.full(16, 7.0)
        bound = ErrorBound.relative(1e-3)
        assert bound.absolute_for(data) > 0.0

    def test_psnr_mode_gives_tighter_bound_for_higher_target(self):
        data = np.linspace(0, 1, 100)
        loose = ErrorBound(value=40.0, mode=ErrorBoundMode.PSNR).absolute_for(data)
        tight = ErrorBound(value=100.0, mode=ErrorBoundMode.PSNR).absolute_for(data)
        assert tight < loose

    def test_non_positive_value_rejected(self):
        with pytest.raises(ConfigurationError):
            ErrorBound(value=0.0)
        with pytest.raises(ConfigurationError):
            ErrorBound(value=-1e-3)

    @pytest.mark.parametrize("mode", ["abs", "rel", "psnr"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_value_rejected(self, value, mode):
        with pytest.raises(ConfigurationError, match="finite"):
            ErrorBound(value=value, mode=mode)

    def test_relative_greater_than_one_rejected(self):
        with pytest.raises(ConfigurationError):
            ErrorBound.relative(1.5)

    def test_describe_mentions_mode_and_value(self):
        assert ErrorBound.relative(1e-3).describe() == "rel=0.001"
        assert ErrorBound.absolute(0.25).describe() == "abs=0.25"

    def test_paper_sweep_values_are_valid(self):
        for value in (1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1):
            assert ErrorBound.relative(value).value == value
