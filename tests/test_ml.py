"""Tests for the ML substrate: decision tree, metrics, IO."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError, ModelNotFittedError
from repro.ml import (
    DecisionTreeRegressor,
    load_model,
    mean_absolute_error,
    model_from_dict,
    prediction_error_interval,
    r2_score,
    root_mean_squared_error,
    save_model,
)


def _make_regression(n=400, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-2, 2, size=(n, 4))
    y = 3.0 * X[:, 0] + np.sin(3 * X[:, 1]) + 0.5 * X[:, 2] ** 2 + rng.normal(0, 0.05, n)
    return X, y


class TestDecisionTree:
    def test_fits_and_predicts_reasonably(self):
        X, y = _make_regression()
        tree = DecisionTreeRegressor(max_depth=10).fit(X, y)
        pred = tree.predict(X)
        assert r2_score(y, pred) > 0.9

    def test_generalises_to_held_out_data(self):
        X, y = _make_regression(800, seed=1)
        tree = DecisionTreeRegressor(max_depth=10, min_samples_leaf=3).fit(X[:600], y[:600])
        pred = tree.predict(X[600:])
        assert r2_score(y[600:], pred) > 0.7

    def test_constant_target(self):
        X = np.random.default_rng(0).normal(size=(50, 3))
        y = np.full(50, 7.0)
        tree = DecisionTreeRegressor().fit(X, y)
        np.testing.assert_allclose(tree.predict(X), 7.0)

    def test_single_sample(self):
        tree = DecisionTreeRegressor().fit(np.array([[1.0, 2.0]]), np.array([5.0]))
        assert tree.predict(np.array([[1.0, 2.0]]))[0] == 5.0

    def test_max_depth_limits_nodes(self):
        X, y = _make_regression(300)
        shallow = DecisionTreeRegressor(max_depth=2).fit(X, y)
        deep = DecisionTreeRegressor(max_depth=12).fit(X, y)
        # A depth-2 tree has at most four leaves, so four distinct predictions.
        assert len(np.unique(shallow.predict(X))) <= 4 < len(np.unique(deep.predict(X)))

    def test_min_samples_leaf_respected(self):
        X, y = _make_regression(200)
        tree = DecisionTreeRegressor(min_samples_leaf=30).fit(X, y)
        leaves = [n for n in tree._nodes if n.feature < 0]
        assert all(leaf.n_samples >= 30 for leaf in leaves)

    def test_predict_before_fit_raises(self):
        with pytest.raises(ModelNotFittedError):
            DecisionTreeRegressor().predict(np.zeros((1, 3)))

    def test_feature_count_mismatch_raises(self):
        X, y = _make_regression(100)
        tree = DecisionTreeRegressor().fit(X, y)
        with pytest.raises(ConfigurationError):
            tree.predict(np.zeros((2, 7)))

    def test_invalid_params_raise(self):
        with pytest.raises(ConfigurationError):
            DecisionTreeRegressor(max_depth=0)
        with pytest.raises(ConfigurationError):
            DecisionTreeRegressor(min_samples_split=1)
        with pytest.raises(ConfigurationError):
            DecisionTreeRegressor(min_samples_leaf=0)

    def test_serialisation_round_trip(self):
        X, y = _make_regression(200)
        tree = DecisionTreeRegressor(max_depth=6).fit(X, y)
        restored = DecisionTreeRegressor.from_dict(tree.to_dict())
        np.testing.assert_allclose(tree.predict(X), restored.predict(X))

    def test_model_saved_with_feature_bagging_keys_still_loads(self):
        # Older builds wrote the random forest's two bagging parameters
        # into every tree's params; such a file loads and predicts the same.
        X, y = _make_regression(200)
        tree = DecisionTreeRegressor(max_depth=6).fit(X, y)
        payload = tree.to_dict()
        assert set(payload["params"]) == {"max_depth", "min_samples_split", "min_samples_leaf"}
        payload["params"].update(max_features=None, random_state=None)
        restored = DecisionTreeRegressor.from_dict(payload)
        assert restored.max_depth == 6
        assert (restored.predict(X) == tree.predict(X)).all()

    def test_feature_importances_sum_to_one(self):
        X, y = _make_regression(200)
        tree = DecisionTreeRegressor().fit(X, y)
        importances = tree.feature_importances()
        assert importances.shape == (4,)
        assert importances.sum() == pytest.approx(1.0)

    def test_important_feature_is_detected(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(500, 3))
        y = 10.0 * X[:, 1] + rng.normal(0, 0.01, 500)
        tree = DecisionTreeRegressor(max_depth=6).fit(X, y)
        assert np.argmax(tree.feature_importances()) == 1

    def test_single_feature_matrix(self):
        X = np.linspace(0, 1, 100).reshape(-1, 1)
        y = (X[:, 0] > 0.5).astype(float)
        tree = DecisionTreeRegressor(max_depth=3).fit(X, y)
        assert tree.predict(np.array([[0.9]]))[0] == pytest.approx(1.0, abs=0.1)


class TestMetrics:
    def test_mae_and_rmse(self):
        y_true = np.array([1.0, 2.0, 3.0])
        y_pred = np.array([1.0, 3.0, 5.0])
        assert mean_absolute_error(y_true, y_pred) == pytest.approx(1.0)
        assert root_mean_squared_error(y_true, y_pred) == pytest.approx(np.sqrt(5 / 3))

    def test_r2_perfect_and_mean(self):
        y = np.array([1.0, 2.0, 3.0, 4.0])
        assert r2_score(y, y) == 1.0
        assert r2_score(y, np.full(4, y.mean())) == pytest.approx(0.0)

    def test_size_mismatch_raises(self):
        with pytest.raises(ValueError):
            mean_absolute_error(np.zeros(2), np.zeros(3))

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            r2_score(np.array([]), np.array([]))

    def test_prediction_error_interval_contains_bulk(self):
        rng = np.random.default_rng(0)
        y_true = rng.normal(size=2000)
        y_pred = y_true + rng.normal(0, 0.5, 2000)
        low, high = prediction_error_interval(y_true, y_pred, confidence=0.8)
        errors = y_pred - y_true
        inside = np.mean((errors >= low) & (errors <= high))
        assert 0.75 <= inside <= 0.85

    def test_interval_invalid_confidence(self):
        with pytest.raises(ValueError):
            prediction_error_interval(np.zeros(3), np.zeros(3), confidence=1.5)


class TestModelIO:
    def test_save_and_load_tree(self, tmp_path):
        X, y = _make_regression(100)
        tree = DecisionTreeRegressor(max_depth=5).fit(X, y)
        path = save_model(tree, tmp_path / "tree.json")
        restored = load_model(path)
        np.testing.assert_allclose(tree.predict(X), restored.predict(X))

    def test_unknown_kind_raises(self):
        with pytest.raises(ConfigurationError):
            model_from_dict({"kind": "svm"})
        with pytest.raises(ConfigurationError):
            model_from_dict({"kind": "random_forest", "trees": []})
