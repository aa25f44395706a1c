"""The compression-quality predictor (ratio, time and PSNR).

Three decision-tree regressors (one per target) are trained on the
11-feature vectors; at run time the predictor extracts features from a
~1 % subsample of a field and returns the predicted compression ratio,
compression time and PSNR for any candidate (error bound, compressor)
configuration — which is how Ocelot selects the "best-qualified"
compression setting without compressing the data first.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from ..compression import ErrorBound
from ..errors import ModelNotFittedError
from ..features.extractor import FeatureExtractor
from ..features.vector import FeatureVector
from ..ml.decision_tree import DecisionTreeRegressor
from .records import QualityRecord, records_to_matrix

__all__ = ["QualityPrediction", "QualityPredictor"]


@dataclass(frozen=True)
class QualityPrediction:
    """Predicted quality for one (data, error bound, compressor) configuration."""

    compression_ratio: float
    compression_time_s: float
    psnr_db: float
    error_bound_abs: float
    compressor: str

    def as_dict(self) -> Dict[str, float]:
        """Return the prediction as a plain dictionary."""
        return {
            "compression_ratio": self.compression_ratio,
            "compression_time_s": self.compression_time_s,
            "psnr_db": self.psnr_db,
            "error_bound_abs": self.error_bound_abs,
        }


class QualityPredictor:
    """Predict compression ratio, time and PSNR from extracted features."""

    TARGETS = ("ratio", "time", "psnr")

    def __init__(self) -> None:
        self.extractor = FeatureExtractor()
        self._models: Dict[str, object] = {}

    # ------------------------------------------------------------------ #
    # Fitting
    # ------------------------------------------------------------------ #
    @property
    def is_fitted(self) -> bool:
        """Whether all three target models have been trained."""
        return set(self._models) == set(self.TARGETS)

    def fit(self, records: List[QualityRecord]) -> "QualityPredictor":
        """Train the three target models from measured quality records."""
        if not records:
            raise ModelNotFittedError("cannot fit the quality predictor on zero records")
        for target in self.TARGETS:
            X, y = records_to_matrix(records, target)
            if y.size == 0:
                # No usable samples for this target (e.g. PSNR all infinite);
                # fall back to a constant predictor via a 1-sample tree.
                X, y = records_to_matrix(records, "ratio")
                y = np.zeros_like(y)
            model = DecisionTreeRegressor(max_depth=14, min_samples_leaf=1, min_samples_split=2)
            model.fit(X, y)
            self._models[target] = model
        return self

    # ------------------------------------------------------------------ #
    # Prediction
    # ------------------------------------------------------------------ #
    def predict_from_features(
        self, features: FeatureVector, error_bound_abs: float, compressor: str
    ) -> QualityPrediction:
        """Predict quality from an already-extracted feature vector."""
        if not self.is_fitted:
            raise ModelNotFittedError("quality predictor has not been fitted")
        row = features.to_array().reshape(1, -1)
        ratio = float(self._models["ratio"].predict(row)[0])
        time_s = float(self._models["time"].predict(row)[0])
        psnr = float(self._models["psnr"].predict(row)[0])
        return QualityPrediction(
            compression_ratio=max(ratio, 1.0),
            compression_time_s=max(time_s, 0.0),
            psnr_db=psnr,
            error_bound_abs=error_bound_abs,
            compressor=compressor,
        )

    def predict(
        self,
        data: np.ndarray,
        error_bound: Union[float, ErrorBound],
        compressor: str = "sz3",
    ) -> QualityPrediction:
        """Extract features from ``data`` and predict quality.

        ``error_bound`` may be a float (interpreted as a value-range-relative
        bound, the paper's convention) or an :class:`ErrorBound`.
        """
        bound = (
            error_bound
            if isinstance(error_bound, ErrorBound)
            else ErrorBound.relative(float(error_bound))
        )
        eb_abs = bound.absolute_for(data)
        extraction = self.extractor.extract(data, eb_abs, compressor=compressor)
        return self.predict_from_features(extraction.features, eb_abs, compressor)

    def predict_sweep(
        self,
        data: np.ndarray,
        error_bounds: Sequence[float],
        compressors: Sequence[str] = ("sz3",),
    ) -> List[QualityPrediction]:
        """Predict quality for a grid of candidate configurations."""
        predictions = []
        for compressor in compressors:
            for rel in error_bounds:
                predictions.append(self.predict(data, rel, compressor=compressor))
        return predictions

    def recommend(
        self,
        data: np.ndarray,
        error_bounds: Sequence[float],
        compressors: Sequence[str] = ("sz3",),
        min_psnr_db: Optional[float] = 60.0,
    ) -> QualityPrediction:
        """Select the best-qualified configuration.

        Among candidates satisfying the PSNR requirement, the one
        with the highest predicted compression ratio wins; if no candidate
        satisfies the constraints, the one with the highest predicted PSNR
        is returned (the most conservative choice).
        """
        candidates = self.predict_sweep(data, error_bounds, compressors)
        acceptable = [c for c in candidates if min_psnr_db is None or c.psnr_db >= min_psnr_db]
        if acceptable:
            return max(acceptable, key=lambda c: c.compression_ratio)
        return max(candidates, key=lambda c: c.psnr_db)
