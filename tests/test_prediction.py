"""Tests for the quality-prediction layer (records, training, model, baseline)."""

from __future__ import annotations

import gc

import numpy as np
import pytest

from repro.compression.interface import Compressor
from repro.errors import ModelNotFittedError
from repro.ml import root_mean_squared_error
from repro.prediction import (
    C1BaselineEstimator,
    QualityPredictor,
    ratio_quality_estimate,
    records_to_matrix,
    train_test_split_records,
)
from repro.prediction.training import DEFAULT_ERROR_BOUNDS, TrainingSetBuilder


class TestTrainingSetBuilder:
    def test_paper_sweep_has_eleven_bounds(self):
        assert len(DEFAULT_ERROR_BOUNDS) == 11
        assert DEFAULT_ERROR_BOUNDS[0] == 1e-6
        assert DEFAULT_ERROR_BOUNDS[-1] == 1e-1

    def test_records_count(self, small_dataset):
        fields = small_dataset.fields[:2]
        builder = TrainingSetBuilder(error_bounds=(1e-3, 1e-2), compressors=("sz3-fast",))
        builder.add_fields(fields)
        assert len(builder.records) == 2 * 2

    def test_record_contents(self, training_records):
        record = training_records[0]
        assert record.compression_ratio > 1.0
        assert record.compression_time_s > 0.0
        assert record.psnr_db is not None
        assert record.application == "cesm"
        assert record.num_elements > 0
        assert record.error_bound_abs > 0
        assert "extraction_time_s" in record.extra

    def test_ratio_increases_with_error_bound_within_field(self, training_records):
        by_field = {}
        for record in training_records:
            by_field.setdefault((record.field_name, record.snapshot), []).append(record)
        for records in by_field.values():
            ordered = sorted(records, key=lambda r: r.error_bound_abs)
            ratios = [r.compression_ratio for r in ordered]
            assert ratios[0] <= ratios[-1] * 1.05  # loosest bound compresses at least as well

    @pytest.mark.parametrize("enabled", [True, False])
    def test_compression_is_timed_with_the_collector_paused(
        self, monkeypatch, small_dataset, enabled
    ):
        """A collection pause is not compression time; the collector's state is restored."""
        collecting, real = [], Compressor.compress

        def spy(self, *args, **kwargs):
            collecting.append(gc.isenabled())
            return real(self, *args, **kwargs)

        monkeypatch.setattr(Compressor, "compress", spy)
        (gc.enable if enabled else gc.disable)()
        try:
            builder = TrainingSetBuilder(error_bounds=(1e-3, 1e-2), compressors=("sz3-fast",))
            builder.add_field(small_dataset.fields[0])
            assert collecting == [False, False]
            assert gc.isenabled() is enabled
        finally:
            gc.enable()


class TestRecordsToMatrix:
    def test_matrix_shapes(self, training_records):
        X, y = records_to_matrix(training_records, "ratio")
        assert X.shape[0] == y.size
        assert X.shape[1] == 11

    def test_invalid_target_raises(self, training_records):
        with pytest.raises(ValueError):
            records_to_matrix(training_records, "speed")

    def test_non_finite_targets_dropped(self, training_records):
        import copy

        records = [copy.deepcopy(r) for r in training_records[:4]]
        records[0].psnr_db = float("inf")
        X, y = records_to_matrix(records, "psnr")
        assert y.size == 3


class TestTrainTestSplit:
    def test_split_by_file_keeps_files_together(self, training_records):
        train, test = train_test_split_records(training_records, train_fraction=0.5, seed=1)
        train_files = {(r.field_name, r.snapshot) for r in train}
        test_files = {(r.field_name, r.snapshot) for r in test}
        assert not train_files & test_files

    def test_split_fraction_roughly_respected(self, training_records):
        train, test = train_test_split_records(training_records, train_fraction=0.3, seed=0)
        assert len(train) + len(test) == len(training_records)
        assert len(train) < len(test)

    def test_invalid_fraction_raises(self, training_records):
        with pytest.raises(ValueError):
            train_test_split_records(training_records, train_fraction=0.0)


class TestQualityPredictor:
    def test_unfitted_prediction_raises(self, cesm_field):
        with pytest.raises(ModelNotFittedError):
            QualityPredictor().predict(cesm_field.data, 1e-3)

    def test_fit_on_empty_records_raises(self):
        with pytest.raises(ModelNotFittedError):
            QualityPredictor().fit([])

    def test_ratio_prediction_accuracy(self, training_records, fitted_predictor):
        """Predicted ratios track measured ratios (the paper's Fig. 12 claim)."""
        _, test = train_test_split_records(training_records, train_fraction=0.7, seed=0)
        truths, preds = [], []
        for record in test:
            prediction = fitted_predictor.predict_from_features(
                record.features, record.error_bound_abs, record.compressor
            )
            truths.append(record.compression_ratio)
            preds.append(prediction.compression_ratio)
        rmse = root_mean_squared_error(truths, preds)
        assert rmse < np.mean(truths)  # errors are small relative to the signal

    def test_predict_from_raw_data(self, fitted_predictor, cesm_field):
        prediction = fitted_predictor.predict(cesm_field.data, 1e-3, compressor="sz3-fast")
        assert prediction.compression_ratio >= 1.0
        assert prediction.compression_time_s >= 0.0
        assert prediction.error_bound_abs > 0.0

    def test_predict_sweep_covers_grid(self, fitted_predictor, cesm_field):
        predictions = fitted_predictor.predict_sweep(
            cesm_field.data, error_bounds=(1e-4, 1e-3), compressors=("sz3-fast",)
        )
        assert len(predictions) == 2

    def test_recommend_prefers_higher_ratio_meeting_quality(self, fitted_predictor, cesm_field):
        choice = fitted_predictor.recommend(
            cesm_field.data,
            error_bounds=(1e-5, 1e-4, 1e-3, 1e-2),
            compressors=("sz3-fast",),
            min_psnr_db=0.0,
        )
        all_preds = fitted_predictor.predict_sweep(
            cesm_field.data, (1e-5, 1e-4, 1e-3, 1e-2), ("sz3-fast",)
        )
        assert choice.compression_ratio == max(p.compression_ratio for p in all_preds)

    def test_recommend_falls_back_when_unreachable(self, fitted_predictor, cesm_field):
        choice = fitted_predictor.recommend(
            cesm_field.data,
            error_bounds=(1e-2,),
            compressors=("sz3-fast",),
            min_psnr_db=10000.0,
        )
        assert choice is not None


class TestC1Baseline:
    def test_formula(self):
        assert ratio_quality_estimate(0.5, 0.5, c1=1.0) == pytest.approx(1.0 / (0.25 + 0.5))

    def test_degenerate_denominator(self):
        assert ratio_quality_estimate(1.0, 1.0, c1=1.0) == pytest.approx(1e6)

    def test_fit_and_predict(self, training_records):
        estimator = C1BaselineEstimator().fit(training_records)
        assert estimator.is_fitted
        preds = estimator.predict(training_records)
        assert preds.shape == (len(training_records),)
        assert np.all(np.isfinite(preds))

    def test_unfitted_predict_raises(self, training_records):
        with pytest.raises(ModelNotFittedError):
            C1BaselineEstimator().predict_record(training_records[0])

    def test_fit_empty_raises(self):
        with pytest.raises(ModelNotFittedError):
            C1BaselineEstimator().fit([])

    def test_learned_model_beats_baseline_across_applications(self, fitted_predictor, training_records):
        """The paper's motivation for Fig. 6: one C1 does not fit all datasets."""
        _, test = train_test_split_records(training_records, train_fraction=0.7, seed=0)
        baseline = C1BaselineEstimator().fit(
            train_test_split_records(training_records, train_fraction=0.7, seed=0)[0]
        )
        truths = np.array([r.compression_ratio for r in test])
        baseline_preds = baseline.predict(test)
        model_preds = np.array(
            [
                fitted_predictor.predict_from_features(
                    r.features, r.error_bound_abs, r.compressor
                ).compression_ratio
                for r in test
            ]
        )
        model_rmse = root_mean_squared_error(truths, model_preds)
        baseline_rmse = root_mean_squared_error(truths, baseline_preds)
        assert model_rmse <= baseline_rmse * 1.5
