"""Subsampling helpers for low-overhead feature extraction.

The quality predictor extracts features from roughly 1 % of the data
(one point in every hundred), which the paper reports keeps prediction
overhead at ~1.7 % of the compression time.
"""

from __future__ import annotations


import numpy as np

from ..errors import FeatureExtractionError

__all__ = ["block_sample"]


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
