"""Subsampling helpers for low-overhead feature extraction.

The quality predictor extracts features from roughly 1 % of the data
(one point in every hundred), which the paper reports keeps prediction
overhead at ~1.7 % of the compression time.
"""

from __future__ import annotations


import numpy as np

from ..errors import FeatureExtractionError

__all__ = ["strided_sample", "block_sample", "sample_indices"]


def strided_sample(data: np.ndarray, fraction: float = 0.01) -> np.ndarray:
    """Return a strided 1-D subsample containing roughly ``fraction`` of the data.

    Sampling is deterministic (every ``k``-th element in flattened order)
    so that repeated extractions of the same field produce identical
    features.
    """
    if not 0.0 < fraction <= 1.0:
        raise FeatureExtractionError(f"sampling fraction must be in (0, 1], got {fraction}")
    flat = np.asarray(data).ravel()
    if fraction >= 1.0 or flat.size == 0:
        return flat
    stride = max(1, int(round(1.0 / fraction)))
    return flat[::stride]


def sample_indices(size: int, fraction: float, seed: int = 0) -> np.ndarray:
    """Return sorted random indices selecting ``fraction`` of ``size`` elements."""
    if not 0.0 < fraction <= 1.0:
        raise FeatureExtractionError(f"sampling fraction must be in (0, 1], got {fraction}")
    if size <= 0:
        raise FeatureExtractionError("size must be positive")
    count = max(1, int(round(size * fraction)))
    rng = np.random.default_rng(seed)
    idx = rng.choice(size, size=min(count, size), replace=False)
    return np.sort(idx)


def block_sample(data: np.ndarray, block: int = 8, fraction: float = 0.01) -> np.ndarray:
    """Sample whole blocks of ``block`` consecutive elements (flattened order).

    Block sampling preserves local smoothness so compressor-based features
    (e.g. Lorenzo prediction error, quantisation-bin statistics) computed
    on the sample resemble those of the full dataset much more closely
    than independent random points would.
    """
    if block <= 0:
        raise FeatureExtractionError("block size must be positive")
    flat = np.asarray(data).ravel()
    if flat.size == 0 or fraction >= 1.0:
        return flat
    n_blocks_total = max(1, flat.size // block)
    n_blocks_sampled = max(1, int(round(n_blocks_total * fraction)))
    stride = max(1, n_blocks_total // n_blocks_sampled)
    starts = np.arange(0, n_blocks_total, stride) * block
    pieces = [flat[s : s + block] for s in starts]
    return np.concatenate(pieces) if pieces else flat[:block]
