"""CART regression tree implemented on NumPy.

The tree greedily minimises the sum of squared errors; split search is
vectorised per feature using cumulative sums over the sorted targets, so
fitting on the few thousand (file × error bound) samples the paper's
training sets contain takes milliseconds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

import numpy as np

from ..errors import ConfigurationError, ModelNotFittedError

__all__ = ["DecisionTreeRegressor"]

#: The constructor's parameters, as :meth:`DecisionTreeRegressor.to_dict`
#: writes them; :meth:`~DecisionTreeRegressor.from_dict` reads only these,
#: so a model saved with the keys of an older build still loads.
_PARAMS = ("max_depth", "min_samples_split", "min_samples_leaf")


@dataclass
class _Node:
    """A tree node; leaves have ``feature == -1``."""

    feature: int = -1
    threshold: float = 0.0
    value: float = 0.0
    left: int = -1
    right: int = -1
    n_samples: int = 0

    def as_dict(self) -> Dict[str, Any]:
        return {
            "feature": self.feature,
            "threshold": self.threshold,
            "value": self.value,
            "left": self.left,
            "right": self.right,
            "n_samples": self.n_samples,
        }


def _best_split(X: np.ndarray, y: np.ndarray, min_samples_leaf: int):
    """Return ``(feature, threshold, sse_gain)`` of the best split, or None."""
    n = y.size
    total_sum = float(y.sum())
    total_sq = float(np.dot(y, y))
    parent_sse = total_sq - total_sum * total_sum / n
    best = None
    best_gain = 1e-12
    for feat in range(X.shape[1]):
        column = X[:, feat]
        order = np.argsort(column, kind="stable")
        sorted_x = column[order]
        sorted_y = y[order]
        # Candidate split positions: between distinct consecutive x values.
        cum_sum = np.cumsum(sorted_y)
        cum_sq = np.cumsum(sorted_y * sorted_y)
        counts_left = np.arange(1, n + 1, dtype=np.float64)
        valid = np.ones(n - 1, dtype=bool) if n > 1 else np.zeros(0, dtype=bool)
        if valid.size == 0:
            continue
        valid &= sorted_x[1:] > sorted_x[:-1]
        left_counts = counts_left[:-1]
        right_counts = n - left_counts
        valid &= (left_counts >= min_samples_leaf) & (right_counts >= min_samples_leaf)
        if not valid.any():
            continue
        left_sum = cum_sum[:-1]
        left_sq = cum_sq[:-1]
        right_sum = total_sum - left_sum
        right_sq = total_sq - left_sq
        sse_left = left_sq - left_sum * left_sum / left_counts
        sse_right = right_sq - right_sum * right_sum / right_counts
        gain = parent_sse - (sse_left + sse_right)
        gain[~valid] = -np.inf
        idx = int(np.argmax(gain))
        if gain[idx] > best_gain:
            best_gain = float(gain[idx])
            threshold = float(0.5 * (sorted_x[idx] + sorted_x[idx + 1]))
            best = (int(feat), threshold, best_gain)
    return best


class DecisionTreeRegressor:
    """Greedy CART regression tree."""

    def __init__(
        self,
        max_depth: int = 12,
        min_samples_split: int = 4,
        min_samples_leaf: int = 2,
    ) -> None:
        if max_depth < 1:
            raise ConfigurationError("max_depth must be >= 1")
        if min_samples_split < 2:
            raise ConfigurationError("min_samples_split must be >= 2")
        if min_samples_leaf < 1:
            raise ConfigurationError("min_samples_leaf must be >= 1")
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self._nodes: List[_Node] = []
        self._n_features: Optional[int] = None

    # ------------------------------------------------------------------ #
    @property
    def is_fitted(self) -> bool:
        """Whether the tree has been fitted."""
        return bool(self._nodes)

    def fit(self, X: np.ndarray, y: np.ndarray) -> "DecisionTreeRegressor":
        """Fit the tree to a design matrix ``X`` and targets ``y``."""
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64).ravel()
        if X.ndim != 2:
            raise ConfigurationError("X must be a 2-D design matrix")
        if X.shape[0] != y.size:
            raise ConfigurationError(
                f"X has {X.shape[0]} rows but y has {y.size} targets"
            )
        if X.shape[0] == 0:
            raise ConfigurationError("cannot fit a tree on an empty training set")
        self._n_features = X.shape[1]
        self._nodes = []
        self._grow(X, y, depth=0)
        return self

    def _grow(self, X: np.ndarray, y: np.ndarray, depth: int) -> int:
        node_index = len(self._nodes)
        node = _Node(value=float(y.mean()), n_samples=int(y.size))
        self._nodes.append(node)
        if (
            depth >= self.max_depth
            or y.size < self.min_samples_split
            or np.allclose(y, y[0])
        ):
            return node_index
        split = _best_split(X, y, self.min_samples_leaf)
        if split is None:
            return node_index
        feat, threshold, _ = split
        mask = X[:, feat] <= threshold
        if mask.all() or not mask.any():
            return node_index
        node.feature = feat
        node.threshold = threshold
        node.left = self._grow(X[mask], y[mask], depth + 1)
        node.right = self._grow(X[~mask], y[~mask], depth + 1)
        return node_index

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predict targets for a design matrix ``X``."""
        if not self.is_fitted:
            raise ModelNotFittedError("decision tree has not been fitted")
        X = np.asarray(X, dtype=np.float64)
        single = X.ndim == 1
        if single:
            X = X.reshape(1, -1)
        if X.shape[1] != self._n_features:
            raise ConfigurationError(
                f"expected {self._n_features} features, got {X.shape[1]}"
            )
        out = np.empty(X.shape[0], dtype=np.float64)
        for i, row in enumerate(X):
            node = self._nodes[0]
            while node.feature >= 0:
                node = self._nodes[node.left if row[node.feature] <= node.threshold else node.right]
            out[i] = node.value
        return out[0:1] if single else out

    def feature_importances(self) -> np.ndarray:
        """Split-count based importance per feature (normalised to sum 1)."""
        if not self.is_fitted:
            raise ModelNotFittedError("decision tree has not been fitted")
        importances = np.zeros(self._n_features, dtype=np.float64)
        for node in self._nodes:
            if node.feature >= 0:
                importances[node.feature] += node.n_samples
        total = importances.sum()
        return importances / total if total > 0 else importances

    # ------------------------------------------------------------------ #
    # Serialisation
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, Any]:
        """Serialise the fitted tree to a JSON-friendly dictionary."""
        return {
            "kind": "decision_tree",
            "params": {key: getattr(self, key) for key in _PARAMS},
            "n_features": self._n_features,
            "nodes": [node.as_dict() for node in self._nodes],
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "DecisionTreeRegressor":
        """Rebuild a tree serialised with :meth:`to_dict`."""
        params = payload["params"]
        tree = cls(**{key: params[key] for key in _PARAMS if key in params})
        tree._n_features = payload["n_features"]
        tree._nodes = [_Node(**node) for node in payload["nodes"]]
        return tree
