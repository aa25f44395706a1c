"""Tests for the feature-extraction package."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import FeatureExtractionError
from repro.features import (
    FEATURE_NAMES,
    FeatureExtractor,
    FeatureVector,
    extract_compressor_features,
    extract_config_features,
    extract_data_features,
    run_length_estimator,
)
from repro.features.compressor_features import quantization_bins


class TestFeatureVector:
    def test_requires_all_features(self):
        with pytest.raises(ValueError):
            FeatureVector(values={"p0": 0.5})

    def test_to_array_order(self):
        values = {name: float(i) for i, name in enumerate(FEATURE_NAMES)}
        vec = FeatureVector(values=values)
        np.testing.assert_array_equal(vec.to_array(), np.arange(len(FEATURE_NAMES)))

    def test_matrix_stacks_vectors(self):
        values = {name: 1.0 for name in FEATURE_NAMES}
        vecs = [FeatureVector(values=values) for _ in range(5)]
        assert FeatureVector.matrix(vecs).shape == (5, len(FEATURE_NAMES))

    def test_eleven_features_as_in_paper(self):
        assert len(FEATURE_NAMES) == 11

    def test_getitem(self):
        values = {name: 2.0 for name in FEATURE_NAMES}
        assert FeatureVector(values=values)["p0"] == 2.0


class TestConfigFeatures:
    def test_log_error_bound(self):
        feats = extract_config_features(1e-3, "sz3")
        assert feats.error_bound_log10 == pytest.approx(-3.0)

    def test_compressor_type_is_integer_id(self):
        a = extract_config_features(1e-3, "sz3").compressor_type
        b = extract_config_features(1e-3, "sz2").compressor_type
        assert a != b

    def test_invalid_bound_raises(self):
        with pytest.raises(FeatureExtractionError):
            extract_config_features(0.0, "sz3")


class TestDataFeatures:
    def test_table1_style_statistics(self, cesm_field):
        feats = extract_data_features(cesm_field.data)
        assert feats.minimum == pytest.approx(0.0, abs=1e-6)
        assert feats.maximum == pytest.approx(0.92, abs=1e-3)
        assert feats.value_range == pytest.approx(0.92, abs=1e-3)

    def test_entropy_in_byte_range(self, cesm_field):
        feats = extract_data_features(cesm_field.data)
        assert 0.0 <= feats.byte_entropy <= 8.0

    def test_lorenzo_error_smaller_for_smooth_data(self, smooth_2d, rough_1d):
        smooth = extract_data_features(smooth_2d).mean_lorenzo_error
        rough = extract_data_features(rough_1d).mean_lorenzo_error
        assert smooth < rough

    def test_empty_raises(self):
        with pytest.raises(FeatureExtractionError):
            extract_data_features(np.array([]))

    def test_nan_only_raises(self):
        with pytest.raises(FeatureExtractionError):
            extract_data_features(np.full(10, np.nan))


class TestCompressorFeatures:
    def test_p0_between_zero_and_one(self, smooth_2d):
        feats = extract_compressor_features(smooth_2d, 1e-3)
        assert 0.0 <= feats.p0 <= 1.0
        assert 0.0 <= feats.P0 <= 1.0

    def test_larger_bound_increases_p0(self, smooth_2d):
        tight = extract_compressor_features(smooth_2d, 1e-5)
        loose = extract_compressor_features(smooth_2d, 1e-1)
        assert loose.p0 >= tight.p0

    def test_quantization_entropy_decreases_with_larger_bound(self, smooth_2d):
        tight = extract_compressor_features(smooth_2d, 1e-5)
        loose = extract_compressor_features(smooth_2d, 1e-1)
        assert loose.quantization_entropy <= tight.quantization_entropy

    def test_rrle_formula(self):
        assert run_length_estimator(0.0, 1.0) == pytest.approx(1.0)
        assert run_length_estimator(0.9, 0.5) == pytest.approx(1.0 / (0.1 * 0.5 + 0.5))

    def test_rrle_degenerate_case(self):
        assert run_length_estimator(1.0, 1.0) == pytest.approx(1e6)

    def test_rrle_correlates_with_compressibility(self, smooth_2d, rough_1d):
        """Higher Rrle should correspond to more compressible data (Fig. 5)."""
        smooth_eb = 1e-2 * float(smooth_2d.max() - smooth_2d.min())
        rough_eb = 1e-2 * float(rough_1d.max() - rough_1d.min())
        smooth = extract_compressor_features(smooth_2d, smooth_eb)
        rough = extract_compressor_features(rough_1d, rough_eb)
        assert smooth.run_length_estimator > rough.run_length_estimator

    def test_quantization_bins_zero_fraction(self, smooth_2d):
        bins = quantization_bins(smooth_2d, 1e-1 * float(smooth_2d.max() - smooth_2d.min()))
        assert np.mean(bins == 0) > 0.5

    def test_invalid_bound_raises(self, smooth_2d):
        with pytest.raises(FeatureExtractionError):
            extract_compressor_features(smooth_2d, 0.0)


class TestFeatureExtractor:
    def test_extract_returns_all_features(self, cesm_field):
        extractor = FeatureExtractor(sample_fraction=0.05)
        result = extractor.extract(cesm_field.data, 1e-3, compressor="sz3")
        assert set(result.features.as_dict()) == set(FEATURE_NAMES)

    def test_sample_fraction_respected(self, cesm_field):
        extractor = FeatureExtractor(sample_fraction=0.01)
        result = extractor.extract(cesm_field.data, 1e-3)
        assert result.sample_fraction < 0.1

    def test_sampling_reduces_extraction_time_proxy(self, cesm_field):
        """Sampled extraction inspects far fewer points than full extraction."""
        full = FeatureExtractor(sample_fraction=1.0).extract(cesm_field.data, 1e-3)
        sampled = FeatureExtractor(sample_fraction=0.01).extract(cesm_field.data, 1e-3)
        assert sampled.sample_size < full.sample_size / 10

    def test_sampled_features_approximate_full_features(self, cesm_field):
        """Subsampled p0 should be close to the full-data p0 (the paper's premise)."""
        eb = 1e-3 * float(cesm_field.data.max() - cesm_field.data.min())
        full = FeatureExtractor(sample_fraction=1.0).extract(cesm_field.data, eb)
        sampled = FeatureExtractor(sample_fraction=0.05).extract(cesm_field.data, eb)
        assert abs(full.features["p0"] - sampled.features["p0"]) < 0.2

    def test_invalid_fraction_raises(self):
        with pytest.raises(FeatureExtractionError):
            FeatureExtractor(sample_fraction=0.0)

    def test_empty_data_raises(self):
        with pytest.raises(FeatureExtractionError):
            FeatureExtractor().extract(np.array([]), 1e-3)

    def test_deterministic_extraction(self, cesm_field):
        extractor = FeatureExtractor(sample_fraction=0.02)
        a = extractor.extract(cesm_field.data, 1e-3).features.to_array()
        b = extractor.extract(cesm_field.data, 1e-3).features.to_array()
        np.testing.assert_array_equal(a, b)
