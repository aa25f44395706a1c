"""Subsampled feature extraction with overhead accounting.

The extractor runs on roughly 1 % of the data (strided block sampling),
which the paper reports reduces prediction overhead to ~1.7 % of the
compression time (Fig. 13 A).  The extraction time is recorded so the
overhead analysis benchmark can reproduce that figure.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..errors import FeatureExtractionError
from ..utils.sampling import block_sample
from .compressor_features import extract_compressor_features
from .config_features import extract_config_features
from .data_features import extract_data_features
from .vector import FeatureVector

__all__ = ["FeatureExtractor", "ExtractionResult", "DEFAULT_SAMPLE_FRACTION"]

#: The share of a field the quality predictor reads (the paper's ~1 %).
DEFAULT_SAMPLE_FRACTION = 0.01
#: Elements per contiguous block the sample is drawn in.
SAMPLE_BLOCK = 64


@dataclass
class ExtractionResult:
    """A feature vector plus bookkeeping about how it was obtained."""

    features: FeatureVector
    sample_size: int
    full_size: int
    extraction_time_s: float

    @property
    def sample_fraction(self) -> float:
        """Fraction of the data actually inspected."""
        if self.full_size == 0:
            return 0.0
        return self.sample_size / self.full_size


class FeatureExtractor:
    """Extract the 11-feature vector for a (data, error bound, compressor) triple."""

    def __init__(self, sample_fraction: float = DEFAULT_SAMPLE_FRACTION) -> None:
        if not 0.0 < sample_fraction <= 1.0:
            raise FeatureExtractionError(
                f"sample fraction must be in (0, 1], got {sample_fraction}"
            )
        self.sample_fraction = float(sample_fraction)

    def sample(self, data: np.ndarray) -> np.ndarray:
        """Return the subsample used for feature extraction.

        Multi-dimensional arrays keep their trailing dimension structure
        where possible: sampling uses contiguous blocks in flattened
        order, which preserves local smoothness so that Lorenzo-error and
        quantisation-bin statistics remain representative.
        """
        arr = np.asarray(data)
        if self.sample_fraction >= 1.0:
            return arr
        return block_sample(arr, block=SAMPLE_BLOCK, fraction=self.sample_fraction)

    def extract(
        self,
        data: np.ndarray,
        error_bound_abs: float,
        compressor: str = "sz3",
    ) -> ExtractionResult:
        """Extract the feature vector, measuring the extraction time."""
        arr = np.asarray(data)
        if arr.size == 0:
            raise FeatureExtractionError("cannot extract features from an empty array")
        start = time.perf_counter()
        sampled = self.sample(arr)
        config = extract_config_features(error_bound_abs, compressor)
        data_feats = extract_data_features(sampled)
        comp_feats = extract_compressor_features(sampled, error_bound_abs)
        elapsed = time.perf_counter() - start
        values = {}
        values.update(config.as_dict())
        values.update(data_feats.as_dict())
        values.update(comp_feats.as_dict())
        return ExtractionResult(
            features=FeatureVector(values=values),
            sample_size=int(np.asarray(sampled).size),
            full_size=int(arr.size),
            extraction_time_s=float(elapsed),
        )
