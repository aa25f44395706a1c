"""Feature extraction for compression-quality prediction.

The paper groups features into three categories (Fig. 3):

* config-based — error bound and compressor type;
* data-based — min, max, value range, byte entropy, average Lorenzo error;
* compressor-based — p0, P0, quantisation entropy and the run-length
  estimator Rrle, all computed from subsampled quantisation bins.
"""

from __future__ import annotations

from .vector import FeatureVector, FEATURE_NAMES
from .config_features import ConfigFeatures, extract_config_features
from .data_features import DataFeatures, extract_data_features
from .compressor_features import (
    CompressorFeatures, extract_compressor_features, run_length_estimator,
)
from .extractor import FeatureExtractor, ExtractionResult

__all__ = [
    "FeatureVector", "FEATURE_NAMES", "ConfigFeatures", "DataFeatures", "CompressorFeatures",
    "extract_config_features", "extract_data_features", "extract_compressor_features",
    "run_length_estimator", "FeatureExtractor", "ExtractionResult",
]
