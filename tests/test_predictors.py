"""Tests for the Lorenzo, regression and interpolation predictors."""

from __future__ import annotations

import numpy as np
import pytest

from repro.compression.predictors.interpolation import InterpolationPredictor
from repro.compression.predictors.lorenzo import LorenzoPredictor, lorenzo_prediction_errors
from repro.compression.predictors.regression import RegressionPredictor
from repro.errors import CompressionError


def _round_trip(predictor, data, eb):
    out = predictor.encode(data, eb)
    recon = predictor.decode(
        out.codes, out.unpredictable_mask, out.literals, out.aux, out.meta, data.shape, eb
    )
    return out, recon


PREDICTORS = [
    ("lorenzo", lambda: LorenzoPredictor()),
    ("regression", lambda: RegressionPredictor(block_size=4)),
    ("interp-linear", lambda: InterpolationPredictor(order="linear")),
    ("interp-cubic", lambda: InterpolationPredictor(order="cubic")),
]


@pytest.mark.parametrize("name,factory", PREDICTORS)
class TestPredictorRoundTrips:
    def test_1d_error_bound(self, name, factory):
        data = np.cumsum(np.random.default_rng(0).normal(0, 1, 600))
        eb = 0.01
        _, recon = _round_trip(factory(), data, eb)
        assert np.max(np.abs(recon - data)) <= eb * (1 + 1e-9)

    def test_2d_error_bound(self, name, factory, smooth_2d):
        data = np.asarray(smooth_2d, dtype=np.float64)
        eb = 1e-3
        _, recon = _round_trip(factory(), data, eb)
        assert np.max(np.abs(recon - data)) <= eb * (1 + 1e-9)

    def test_3d_error_bound(self, name, factory, smooth_3d):
        data = np.asarray(smooth_3d, dtype=np.float64)
        eb = 1e-3
        _, recon = _round_trip(factory(), data, eb)
        assert np.max(np.abs(recon - data)) <= eb * (1 + 1e-9)

    def test_reconstruction_matches_decoder(self, name, factory, smooth_2d):
        """The encoder's advertised reconstruction equals the decoder output."""
        data = np.asarray(smooth_2d, dtype=np.float64)
        out, recon = _round_trip(factory(), data, 1e-3)
        np.testing.assert_allclose(out.reconstruction, recon, rtol=0, atol=1e-12)

    def test_smooth_data_yields_more_concentrated_codes_than_rough(self, name, factory, smooth_2d):
        """Smooth fields produce codes far more concentrated near zero than noise."""
        smooth = np.asarray(smooth_2d, dtype=np.float64)
        rough = np.random.default_rng(11).normal(size=smooth.shape)
        eb = 1e-3 * float(smooth.max() - smooth.min())
        smooth_codes = factory().encode(smooth, eb).codes
        rough_codes = factory().encode(rough, 1e-3 * float(rough.max() - rough.min())).codes
        smooth_spread = float(np.std(smooth_codes))
        rough_spread = float(np.std(rough_codes))
        assert smooth_spread < rough_spread

    def test_rejects_non_positive_error_bound(self, name, factory):
        with pytest.raises(CompressionError):
            factory().encode(np.zeros(10), 0.0)

    def test_constant_field(self, name, factory):
        data = np.full((20, 20), 3.14)
        _, recon = _round_trip(factory(), data, 1e-6)
        assert np.max(np.abs(recon - data)) <= 1e-6 * (1 + 1e-9)


class TestLorenzoSpecifics:
    def test_tiny_error_bound_falls_back_to_literals(self):
        data = np.random.default_rng(0).normal(0, 1e30, 100)
        predictor = LorenzoPredictor()
        out = predictor.encode(data, 1e-30)
        assert out.meta["fallback"] is True
        recon = predictor.decode(
            out.codes, out.unpredictable_mask, out.literals, out.aux, out.meta, data.shape, 1e-30
        )
        np.testing.assert_array_equal(recon, data)

    def test_prediction_errors_shape(self):
        data = np.random.default_rng(1).normal(size=(10, 12))
        errors = lorenzo_prediction_errors(data)
        assert errors.shape == data.shape

    def test_prediction_errors_small_for_smooth_data(self, smooth_2d):
        smooth_err = np.mean(np.abs(lorenzo_prediction_errors(np.asarray(smooth_2d, dtype=float))[1:, 1:]))
        rough = np.random.default_rng(2).normal(size=smooth_2d.shape)
        rough_err = np.mean(np.abs(lorenzo_prediction_errors(rough)[1:, 1:]))
        assert smooth_err < rough_err


class TestRegressionSpecifics:
    def test_non_divisible_shapes_are_padded(self):
        data = np.random.default_rng(0).normal(size=(13, 17))
        predictor = RegressionPredictor(block_size=8)
        out, recon = _round_trip(predictor, data, 0.01)
        assert recon.shape == data.shape

    def test_linear_ramp_is_predicted_exactly(self):
        """An affine field is captured entirely by the per-block plane fit."""
        x = np.arange(32, dtype=np.float64)
        data = np.add.outer(2.0 * x, 3.0 * x) + 5.0
        predictor = RegressionPredictor(block_size=8)
        out = predictor.encode(data, 1e-3)
        assert np.mean(out.codes == 0) > 0.95

    def test_invalid_block_size(self):
        with pytest.raises(CompressionError):
            RegressionPredictor(block_size=1)

    def test_block_size_is_kept(self):
        assert RegressionPredictor(block_size=6).block_size == 6


class TestInterpolationSpecifics:
    def test_invalid_order_raises(self):
        with pytest.raises(CompressionError):
            InterpolationPredictor(order="quadratic")

    def test_cubic_beats_linear_on_smooth_data(self, smooth_2d):
        """Cubic interpolation produces more zero codes on smooth fields."""
        data = np.asarray(smooth_2d, dtype=np.float64)
        eb = 1e-4
        linear = InterpolationPredictor(order="linear").encode(data, eb)
        cubic = InterpolationPredictor(order="cubic").encode(data, eb)
        assert np.mean(cubic.codes == 0) >= np.mean(linear.codes == 0) * 0.95

    def test_odd_sized_dimensions(self):
        data = np.random.default_rng(3).normal(size=(17, 23, 5))
        data = np.cumsum(np.cumsum(np.cumsum(data, 0), 1), 2)  # smooth it a bit
        predictor = InterpolationPredictor()
        out, recon = _round_trip(predictor, data, 0.05)
        assert np.max(np.abs(recon - data)) <= 0.05 * (1 + 1e-9)

    def test_base_stride_is_power_of_two(self):
        assert InterpolationPredictor._base_stride((100, 30)) in {64}
        assert InterpolationPredictor._base_stride((5,)) == 4
        assert InterpolationPredictor._base_stride((1, 1)) == 1

    def test_code_stream_length_matches_decode_expectation(self, smooth_3d):
        data = np.asarray(smooth_3d, dtype=np.float64)
        predictor = InterpolationPredictor()
        out = predictor.encode(data, 1e-3)
        # Corrupting the stream length should be detected.
        with pytest.raises(CompressionError):
            predictor.decode(
                out.codes[:-5],
                out.unpredictable_mask[:-5],
                out.literals,
                out.aux,
                out.meta,
                data.shape,
                1e-3,
            )
