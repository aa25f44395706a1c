"""Compressor-based features: statistics of the quantisation bins.

The paper derives four features from the quantisation bins produced on a
subsample of the data:

* ``p0`` — the fraction of zero-valued quantisation bins;
* ``P0`` — the fraction of the Huffman-encoded output occupied by the
  zero bin's codeword;
* the quantisation entropy (Shannon entropy of the bins);
* the run-length estimator ``Rrle = 1 / ((1 - p0) * P0 + (1 - P0))``.

These are the strongest predictors of compression ratio/speed and are
also correlated with PSNR (Figs. 5-8).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from ..compression.encoders.huffman import HuffmanCodebook, symbol_frequencies
from ..compression.predictors.lorenzo import lorenzo_prediction_errors
from ..compression.quantizer import LinearQuantizer
from ..errors import FeatureExtractionError
from ..utils.stats import shannon_entropy

__all__ = ["CompressorFeatures", "extract_compressor_features", "run_length_estimator"]


@dataclass(frozen=True)
class CompressorFeatures:
    """Features derived from subsampled quantisation bins."""

    p0: float
    P0: float
    quantization_entropy: float
    run_length_estimator: float

    def as_dict(self) -> Dict[str, float]:
        """Return the features keyed by canonical feature name."""
        return {
            "p0": self.p0,
            "P0": self.P0,
            "quantization_entropy": self.quantization_entropy,
            "run_length_estimator": self.run_length_estimator,
        }


def run_length_estimator(p0: float, P0: float) -> float:
    """The paper's Rrle feature: ``1 / ((1 - p0) * P0 + (1 - P0))``.

    Unlike the C1-tuned estimator of prior work, Rrle has no per-application
    constant; it is fed to the ML model together with p0 and P0 so the
    model can fit application-specific behaviour itself.
    """
    denominator = (1.0 - p0) * P0 + (1.0 - P0)
    if denominator <= 0:
        # p0 == 1 and P0 == 1: the stream is entirely zero bins.
        return float(1e6)
    return float(1.0 / denominator)


def quantization_bins(data: np.ndarray, error_bound_abs: float) -> np.ndarray:
    """Quantisation bins of the Lorenzo prediction error on the given sample.

    The paper computes the bins by running the prediction stage on the
    real (not reconstructed) data values of a subsample, which keeps the
    feature-extraction overhead negligible.
    """
    if error_bound_abs <= 0:
        raise FeatureExtractionError(
            f"absolute error bound must be positive, got {error_bound_abs}"
        )
    arr = np.asarray(data, dtype=np.float64)
    if arr.size == 0:
        raise FeatureExtractionError("cannot compute quantisation bins of an empty array")
    errors = lorenzo_prediction_errors(arr)
    result = LinearQuantizer().quantize(errors.ravel(), error_bound_abs)
    return result.codes


def extract_compressor_features(data: np.ndarray, error_bound_abs: float) -> CompressorFeatures:
    """Compute p0, P0, quantisation entropy and Rrle for a data sample."""
    bins = quantization_bins(data, error_bound_abs)
    total = bins.size
    zero_count = int(np.count_nonzero(bins == 0))
    p0 = zero_count / total if total else 0.0
    frequencies = symbol_frequencies(bins)
    codebook = HuffmanCodebook.from_frequencies(frequencies)
    P0 = codebook.zero_symbol_share(frequencies, zero_symbol=0)
    q_entropy = shannon_entropy(bins)
    return CompressorFeatures(
        p0=float(p0),
        P0=float(P0),
        quantization_entropy=float(q_entropy),
        run_length_estimator=run_length_estimator(p0, P0),
    )
