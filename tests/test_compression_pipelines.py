"""Tests for the full compression pipelines, registry and blob format."""

from __future__ import annotations

import numpy as np
import pytest

from repro.compression import (
    CompressedBlob,
    ErrorBound,
    PipelineConfig,
    SectionContainer,
    available_compressors,
    compressor_type_id,
    create_compressor,
)
from repro.compression.sz.pipeline import PredictionPipelineCompressor
from repro.compression.predictors.lorenzo import LorenzoPredictor
from repro.errors import (
    CompressionError,
    ConfigurationError,
    EncodingError,
    ErrorBoundViolation,
    UnknownCompressorError,
)


def _tolerance(data, eb_abs):
    """Error-bound tolerance allowing for the cast back to the input dtype."""
    arr = np.asarray(data)
    eps = float(np.finfo(arr.dtype).eps) if np.issubdtype(arr.dtype, np.floating) else 0.0
    return eb_abs * (1 + 1e-9) + eps * float(np.max(np.abs(arr)))


class TestRegistry:
    def test_expected_compressors_present(self):
        names = available_compressors()
        for expected in ("sz3", "sz2", "sz-lorenzo", "zfp-like", "sz3-fast"):
            assert expected in names

    def test_create_returns_distinct_instances(self):
        a = create_compressor("sz3")
        b = create_compressor("sz3")
        assert a is not b

    def test_unknown_name_raises(self):
        with pytest.raises(UnknownCompressorError):
            create_compressor("definitely-not-a-compressor")

    def test_compressor_type_ids_are_stable_and_unique(self):
        ids = [compressor_type_id(name) for name in available_compressors()]
        assert len(set(ids)) == len(ids)

    def test_compressor_type_id_unknown_raises(self):
        with pytest.raises(UnknownCompressorError):
            compressor_type_id("nope")


@pytest.mark.parametrize("name", ["sz3", "sz3-linear", "sz2", "sz-lorenzo", "zfp-like", "sz3-fast"])
class TestPipelineRoundTrips:
    def test_2d_round_trip_respects_bound(self, name, smooth_2d):
        compressor = create_compressor(name)
        result = compressor.compress(smooth_2d, ErrorBound.relative(1e-3), verify=True)
        assert result.compression_ratio > 1.0

    def test_3d_round_trip_respects_bound(self, name, smooth_3d):
        compressor = create_compressor(name)
        result = compressor.compress(smooth_3d, ErrorBound.relative(1e-3), verify=True)
        assert result.stats.max_abs_error is not None

    def test_blob_serialisation_round_trip(self, name, smooth_2d):
        compressor = create_compressor(name)
        result = compressor.compress(smooth_2d, ErrorBound.relative(1e-2))
        blob_bytes = result.blob.to_bytes()
        restored = CompressedBlob.from_bytes(blob_bytes)
        recon = create_compressor(name).decompress(restored)
        eb_abs = ErrorBound.relative(1e-2).absolute_for(smooth_2d)
        assert recon.shape == smooth_2d.shape
        max_err = np.max(np.abs(recon.astype(np.float64) - smooth_2d.astype(np.float64)))
        assert max_err <= _tolerance(smooth_2d, eb_abs)

    def test_dtype_preserved(self, name, smooth_2d):
        compressor = create_compressor(name)
        result = compressor.compress(smooth_2d.astype(np.float64), ErrorBound.relative(1e-3))
        recon = compressor.decompress(result.blob)
        assert recon.dtype == np.float64


class TestCompressionBehaviour:
    def test_larger_error_bound_gives_higher_ratio(self, smooth_2d):
        compressor = create_compressor("sz3")
        loose = compressor.compress(smooth_2d, ErrorBound.relative(1e-2))
        tight = compressor.compress(smooth_2d, ErrorBound.relative(1e-5))
        assert loose.compression_ratio > tight.compression_ratio

    def test_smooth_data_compresses_better_than_rough(self, smooth_2d, rough_1d):
        compressor = create_compressor("sz3")
        smooth = compressor.compress(smooth_2d, ErrorBound.relative(1e-3))
        rough = compressor.compress(rough_1d, ErrorBound.relative(1e-3))
        assert smooth.compression_ratio > rough.compression_ratio

    def test_psnr_improves_with_tighter_bound(self, smooth_2d):
        compressor = create_compressor("sz3")
        loose = compressor.compress(smooth_2d, ErrorBound.relative(1e-2), collect_quality=True)
        tight = compressor.compress(smooth_2d, ErrorBound.relative(1e-4), collect_quality=True)
        assert tight.stats.psnr_db > loose.stats.psnr_db

    def test_lossless_ratio_of_float_data_is_modest(self, rough_1d):
        """Sanity check of the paper's motivation: rough float data barely compresses."""
        compressor = create_compressor("sz3")
        result = compressor.compress(rough_1d, ErrorBound.relative(1e-6))
        assert result.compression_ratio < 4.0

    def test_empty_array_rejected(self):
        compressor = create_compressor("sz3")
        with pytest.raises(CompressionError):
            compressor.compress(np.zeros(0), ErrorBound.relative(1e-3))

    def test_integer_input_is_cast(self):
        compressor = create_compressor("sz3-fast")
        data = np.arange(1000).reshape(20, 50)
        result = compressor.compress(data, ErrorBound.relative(1e-3), verify=True)
        assert result.compression_ratio > 1.0

    def test_decompress_with_wrong_compressor_raises(self, smooth_2d):
        result = create_compressor("sz3").compress(smooth_2d, ErrorBound.relative(1e-3))
        with pytest.raises(CompressionError):
            create_compressor("sz2").decompress(result.blob)

    def test_stats_fields_populated(self, smooth_2d):
        result = create_compressor("sz3").compress(
            smooth_2d, ErrorBound.relative(1e-3), collect_quality=True
        )
        stats = result.stats
        assert stats.original_bytes == smooth_2d.nbytes
        assert stats.compressed_bytes > 0
        assert stats.compression_time_s > 0
        assert stats.psnr_db is not None and stats.psnr_db > 40

    def test_verification_failure_raises(self, smooth_2d, monkeypatch):
        compressor = create_compressor("sz3-fast")

        def broken_decompress(blob):
            return np.zeros(smooth_2d.shape, dtype=np.float32)

        monkeypatch.setattr(compressor, "decompress_blob", broken_decompress)
        with pytest.raises(ErrorBoundViolation):
            compressor.compress(smooth_2d, ErrorBound.relative(1e-4), verify=True)


class TestPipelineConfig:
    def test_invalid_entropy_stage(self):
        with pytest.raises(ConfigurationError):
            PipelineConfig(entropy_stage="arithmetic")

    def test_entropy_none_still_round_trips(self, smooth_2d):
        compressor = PredictionPipelineCompressor(
            predictor=LorenzoPredictor(),
            config=PipelineConfig(entropy_stage="none"),
            name="lorenzo-raw",
        )
        result = compressor.compress(smooth_2d, ErrorBound.relative(1e-3), verify=True)
        assert result.compression_ratio > 1.0

    def test_registry_rows_name_their_stages(self):
        compressor = create_compressor("sz3")
        assert compressor.predictor.name == "interpolation"
        assert compressor.config.lossless_backend == "deflate"
        assert create_compressor("sz2").predictor.name == "regression"

    def test_a_registry_row_keeps_predictor_parameters_and_blob_names(self):
        """One class, a row per name: what the wrapper classes used to pick."""
        sz2 = create_compressor("sz2", block_size=4)
        assert (sz2.name, sz2.predictor.describe()["block_size"]) == ("sz2", 4)
        linear = create_compressor("sz3-linear")
        assert (linear.name, linear.predictor.describe()["order"]) == ("sz3-linear", "linear")
        assert create_compressor("zfp-like", block_size=8).predictor.block_size == 8
        for name, blob_name, stage in [
            ("sz3", "sz3", "huffman"),
            ("sz-lorenzo", "sz-lorenzo", "huffman"),
            ("zfp-like", "zfp-like", "huffman"),
            ("sz3-fast", "sz3", "none"),
            ("sz-lorenzo-fast", "sz-lorenzo", "none"),
        ]:
            compressor = create_compressor(name)
            assert type(compressor) is PredictionPipelineCompressor
            assert (compressor.name, compressor.config.entropy_stage) == (blob_name, stage)
            assert compressor.registered_as == name


class TestSectionContainer:
    def test_round_trip_sections_and_arrays(self):
        container = SectionContainer(header={"kind": "test"})
        container.add_section("raw", b"hello world")
        container.add_array("arr", np.arange(10, dtype=np.int32).reshape(2, 5))
        restored = SectionContainer.from_bytes(container.to_bytes())
        assert restored.header["kind"] == "test"
        assert restored.get_section("raw") == b"hello world"
        np.testing.assert_array_equal(
            restored.get_array("arr"), np.arange(10, dtype=np.int32).reshape(2, 5)
        )

    def test_missing_section_raises(self):
        container = SectionContainer()
        with pytest.raises(EncodingError):
            container.get_section("nope")

    def test_bad_magic_raises(self):
        with pytest.raises(EncodingError):
            SectionContainer.from_bytes(b"NOPE" + b"\x00" * 20)

    def test_truncated_container_raises(self):
        container = SectionContainer()
        container.add_section("x", b"abcdef")
        payload = container.to_bytes()
        with pytest.raises(EncodingError):
            SectionContainer.from_bytes(payload[: len(payload) - 3])

    def test_blob_header_round_trip(self, smooth_2d):
        result = create_compressor("sz2").compress(smooth_2d, ErrorBound.relative(1e-3))
        blob = CompressedBlob.from_bytes(result.blob.to_bytes())
        assert blob.shape == smooth_2d.shape
        assert blob.dtype == str(smooth_2d.dtype)
        assert blob.compressor == "sz2"
        assert blob.num_elements == smooth_2d.size
