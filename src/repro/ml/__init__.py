"""Minimal ML substrate: CART regression trees.

scikit-learn is not available in the offline environment, so the
decision-tree regressor the paper uses for quality prediction is
implemented here directly on NumPy, along with the regression metrics
used in the evaluation.
"""

from __future__ import annotations

from .decision_tree import DecisionTreeRegressor
from .metrics import (
    mean_absolute_error, root_mean_squared_error, r2_score, prediction_error_interval,
)

__all__ = [
    "DecisionTreeRegressor", "mean_absolute_error", "root_mean_squared_error", "r2_score",
    "prediction_error_interval",
]
