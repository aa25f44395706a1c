"""Tests for the linear quantiser."""

from __future__ import annotations

import numpy as np
import pytest

from repro.compression.quantizer import LinearQuantizer
from repro.errors import CompressionError


class TestQuantizeDequantize:
    def test_round_trip_within_bound(self):
        quantizer = LinearQuantizer()
        residuals = np.random.default_rng(0).normal(0, 1.0, 1000)
        eb = 0.01
        result = quantizer.quantize(residuals, eb)
        recon = quantizer.dequantize(result.codes, result.unpredictable_mask, result.literals, eb)
        assert np.max(np.abs(recon - residuals)) <= eb * (1 + 1e-12)

    def test_zero_residuals_give_zero_codes(self):
        quantizer = LinearQuantizer()
        result = quantizer.quantize(np.zeros(100), 1e-3)
        assert np.all(result.codes == 0)
        assert not result.unpredictable_mask.any()

    def test_large_residuals_escape_to_literals(self):
        quantizer = LinearQuantizer(bin_radius=4)
        residuals = np.array([0.0, 0.001, 100.0])
        result = quantizer.quantize(residuals, 0.01)
        assert int(result.unpredictable_mask.sum()) == 1
        assert result.literals[0] == 100.0

    def test_literals_preserved_exactly(self):
        quantizer = LinearQuantizer(bin_radius=2)
        residuals = np.array([55.5, -0.004, 0.002])
        eb = 0.01
        result = quantizer.quantize(residuals, eb)
        recon = quantizer.dequantize(result.codes, result.unpredictable_mask, result.literals, eb)
        assert recon[0] == 55.5

    def test_non_finite_values_escape(self):
        quantizer = LinearQuantizer()
        residuals = np.array([np.nan, np.inf, 0.5])
        result = quantizer.quantize(residuals, 0.1)
        assert result.unpredictable_mask[0] and result.unpredictable_mask[1]

    def test_approximations_match_dequantize(self):
        quantizer = LinearQuantizer()
        residuals = np.random.default_rng(1).uniform(-1, 1, 500)
        eb = 0.05
        result = quantizer.quantize(residuals, eb)
        recon = quantizer.dequantize(result.codes, result.unpredictable_mask, result.literals, eb)
        np.testing.assert_allclose(recon, result.approximations)

    def test_invalid_error_bound_raises(self):
        with pytest.raises(CompressionError):
            LinearQuantizer().quantize(np.zeros(3), 0.0)
        with pytest.raises(CompressionError):
            LinearQuantizer().quantize(np.zeros(3), -1.0)

    def test_invalid_bin_radius_raises(self):
        with pytest.raises(CompressionError):
            LinearQuantizer(bin_radius=0)

    def test_literal_count_mismatch_raises(self):
        quantizer = LinearQuantizer()
        result = quantizer.quantize(np.array([1e9, 0.0]), 1e-9)
        with pytest.raises(CompressionError):
            quantizer.dequantize(result.codes, result.unpredictable_mask, np.zeros(0), 1e-9)

    def test_alphabet_size(self):
        """The entropy coder sees at most ``2 * bin_radius + 1`` symbols: the rest escape."""
        result = LinearQuantizer(bin_radius=10).quantize(np.arange(-12.0, 13.0), 0.5)
        assert np.unique(result.codes[~result.unpredictable_mask]).tolist() == list(range(-10, 11))
        assert result.literals.tolist() == [-12.0, -11.0, 11.0, 12.0]
