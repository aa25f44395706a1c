"""The assembled feature vector fed to the quality-prediction model."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

__all__ = ["FEATURE_NAMES", "FeatureVector"]

#: Canonical feature ordering — 11 features, matching the paper's model.
FEATURE_NAMES: List[str] = [
    "error_bound_log10",
    "compressor_type",
    "minimum",
    "maximum",
    "value_range",
    "byte_entropy",
    "mean_lorenzo_error",
    "p0",
    "P0",
    "quantization_entropy",
    "run_length_estimator",
]


@dataclass
class FeatureVector:
    """A named feature vector for one (dataset, error bound, compressor) triple."""

    values: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        missing = [name for name in FEATURE_NAMES if name not in self.values]
        if missing:
            raise ValueError(f"feature vector missing features: {missing}")

    def to_array(self) -> np.ndarray:
        """Return the features as a 1-D float64 array in canonical order."""
        return np.array([float(self.values[name]) for name in FEATURE_NAMES], dtype=np.float64)

    def __getitem__(self, name: str) -> float:
        return float(self.values[name])

    def as_dict(self) -> Dict[str, float]:
        """Return a copy of the named feature values."""
        return dict(self.values)

    @staticmethod
    def matrix(vectors: "List[FeatureVector]") -> np.ndarray:
        """Stack feature vectors into a 2-D design matrix."""
        if not vectors:
            return np.zeros((0, len(FEATURE_NAMES)), dtype=np.float64)
        return np.vstack([vec.to_array() for vec in vectors])
