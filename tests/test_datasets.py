"""Tests for the synthetic scientific dataset package."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import (
    APPLICATIONS,
    Field,
    ScientificDataset,
    application_names,
    generate_application,
    generate_field,
    get_application_spec,
    lognormal_field,
    rescale_to_range,
    spectral_field,
    vortex_field,
    wave_field,
)
from repro.errors import DatasetError


class TestGenerators:
    def test_spectral_field_shape_and_determinism(self):
        a = spectral_field((32, 24), beta=3.0, seed=5)
        b = spectral_field((32, 24), beta=3.0, seed=5)
        assert a.shape == (32, 24)
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        a = spectral_field((16, 16), seed=1)
        b = spectral_field((16, 16), seed=2)
        assert not np.allclose(a, b)

    def test_higher_beta_is_smoother(self):
        rough = spectral_field((64, 64), beta=0.5, seed=0)
        smooth = spectral_field((64, 64), beta=4.0, seed=0)
        rough_grad = np.mean(np.abs(np.diff(rough, axis=0)))
        smooth_grad = np.mean(np.abs(np.diff(smooth, axis=0)))
        assert smooth_grad < rough_grad

    def test_invalid_shape_raises(self):
        with pytest.raises(DatasetError):
            spectral_field((0, 10))

    def test_wave_field_oscillates(self):
        field = wave_field((64, 64), wavelength=8.0, seed=0)
        assert field.std() > 0.01

    def test_vortex_field_shape(self):
        assert vortex_field((20, 30), seed=1).shape == (20, 30)

    def test_lognormal_field_is_positive(self):
        assert np.all(lognormal_field((24, 24), seed=3) > 0)

    def test_rescale_to_range(self):
        data = np.random.default_rng(0).normal(size=100)
        scaled = rescale_to_range(data, 5.0, 10.0)
        assert scaled.min() == pytest.approx(5.0)
        assert scaled.max() == pytest.approx(10.0)

    def test_rescale_constant_input(self):
        scaled = rescale_to_range(np.full(10, 3.0), 0.0, 1.0)
        np.testing.assert_allclose(scaled, 0.5)

    def test_rescale_invalid_range_raises(self):
        with pytest.raises(DatasetError):
            rescale_to_range(np.zeros(5), 2.0, 1.0)


class TestApplicationCatalogue:
    def test_paper_applications_present(self):
        names = application_names()
        for expected in ("cesm", "rtm", "miranda", "nyx", "isabel", "qmcpack", "hacc"):
            assert expected in names

    def test_table4_dimensions(self):
        assert get_application_spec("rtm").full_dimensions == (449, 449, 235)
        assert get_application_spec("miranda").full_dimensions == (256, 384, 384)
        assert get_application_spec("nyx").full_dimensions == (512, 512, 512)
        assert get_application_spec("cesm").full_dimensions == (1800, 3600)
        assert get_application_spec("isabel").full_dimensions == (100, 500, 500)

    def test_table1_value_ranges(self):
        cesm = get_application_spec("cesm")
        cldhgh = next(f for f in cesm.fields if f.name == "CLDHGH")
        assert cldhgh.value_range == pytest.approx(0.92)
        hacc = get_application_spec("hacc")
        vx = next(f for f in hacc.fields if f.name == "vx")
        assert vx.value_range == pytest.approx(7877.46)

    def test_scaled_dimensions(self):
        spec = get_application_spec("nyx")
        assert spec.scaled_dimensions(0.1) == (51, 51, 51)
        assert all(d >= 8 for d in spec.scaled_dimensions(0.001))

    def test_invalid_scale_raises(self):
        with pytest.raises(DatasetError):
            get_application_spec("cesm").scaled_dimensions(0.0)

    def test_unknown_application_raises(self):
        with pytest.raises(DatasetError):
            get_application_spec("lammps")

    def test_all_specs_have_fields(self):
        for spec in APPLICATIONS.values():
            assert len(spec.fields) >= 1
            assert spec.snapshots >= 1


class TestGenerateField:
    def test_field_matches_spec_range(self):
        field = generate_field("cesm", "FLDSC", scale=0.05, seed=0)
        assert field.data.min() == pytest.approx(92.84, rel=1e-3)
        assert field.data.max() == pytest.approx(418.24, rel=1e-3)

    def test_field_dtype_is_float32(self):
        assert generate_field("miranda", "density", scale=0.05).data.dtype == np.float32

    def test_snapshots_differ(self):
        a = generate_field("rtm", "snapshot", snapshot=0, scale=0.05)
        b = generate_field("rtm", "snapshot", snapshot=1, scale=0.05)
        assert not np.allclose(a.data, b.data)

    def test_generation_is_deterministic(self):
        a = generate_field("nyx", "temperature", scale=0.04, seed=9)
        b = generate_field("nyx", "temperature", scale=0.04, seed=9)
        np.testing.assert_array_equal(a.data, b.data)

    def test_unknown_field_raises(self):
        with pytest.raises(DatasetError):
            generate_field("cesm", "NOT_A_FIELD")

    def test_explicit_shape_override(self):
        field = generate_field("cesm", "CLDHGH", shape=(16, 20))
        assert field.shape == (16, 20)

    def test_filename_contains_metadata(self):
        field = generate_field("cesm", "CLDHGH", snapshot=3, scale=0.05)
        assert "cesm" in field.filename
        assert "CLDHGH" in field.filename
        assert "s0003" in field.filename


class TestGenerateApplication:
    def test_file_count(self):
        ds = generate_application("miranda", snapshots=2, scale=0.04)
        assert ds.file_count == 2 * len(get_application_spec("miranda").fields)

    def test_field_subset_selection(self):
        ds = generate_application("cesm", snapshots=1, scale=0.04, fields=["CLDHGH", "TMQ"])
        assert set(ds.field_names()) == {"CLDHGH", "TMQ"}

    def test_total_bytes_positive(self, small_dataset):
        assert small_dataset.total_bytes > 0

    def test_invalid_snapshots_raises(self):
        with pytest.raises(DatasetError):
            generate_application("cesm", snapshots=0)


class TestFieldAndDatasetContainers:
    def test_field_requires_data(self):
        with pytest.raises(DatasetError):
            Field(name="x", data=np.array([]))

    def test_field_casts_to_float(self):
        field = Field(name="x", data=np.arange(10))
        assert np.issubdtype(field.data.dtype, np.floating)

    def test_dataset_iteration_order(self):
        fields = [Field(name=f"f{i}", data=np.ones(4)) for i in range(3)]
        ds = ScientificDataset("test", fields)
        assert [f.name for f in ds] == ["f0", "f1", "f2"]
        assert ds[1].name == "f1"

    def test_field_summary(self, cesm_field):
        summary = cesm_field.summary()
        assert summary.size == cesm_field.data.size
