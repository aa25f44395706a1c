"""Statistical helpers used by compressors, features and evaluation.

These mirror the metrics used throughout the paper: PSNR (peak signal to
noise ratio), byte-level Shannon entropy, value range, and the basic
per-field summaries listed in Table I.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict
from typing import Dict, Tuple

import numpy as np

from ..errors import FeatureExtractionError

__all__ = [
    "value_range",
    "mean_squared_error",
    "normalized_rmse",
    "psnr",
    "psnr_from_mse",
    "reconstruction_error",
    "shannon_entropy",
    "byte_entropy",
    "DataSummary",
    "summarize",
]


def _as_float_array(data: np.ndarray) -> np.ndarray:
    """Return ``data`` as a floating-point ndarray without copying when possible."""
    arr = np.asarray(data)
    if arr.size == 0:
        raise FeatureExtractionError("cannot compute statistics of an empty array")
    if not np.issubdtype(arr.dtype, np.floating):
        arr = arr.astype(np.float64)
    return arr


def value_range(data: np.ndarray) -> float:
    """Return ``max(data) - min(data)`` as a Python float."""
    arr = _as_float_array(data)
    return float(arr.max() - arr.min())


def _difference(original: np.ndarray, reconstructed: np.ndarray) -> np.ndarray:
    """``original - reconstructed`` as a fresh float64 array."""
    a = _as_float_array(original)
    b = _as_float_array(reconstructed)
    if a.shape != b.shape:
        raise FeatureExtractionError(
            f"shape mismatch: {a.shape} vs {b.shape} when computing MSE"
        )
    return a.astype(np.float64, copy=False) - b.astype(np.float64, copy=False)


def mean_squared_error(original: np.ndarray, reconstructed: np.ndarray) -> float:
    """Mean squared error between two arrays of identical shape."""
    diff = _difference(original, reconstructed)
    return float(np.mean(diff * diff))


def reconstruction_error(original: np.ndarray, reconstructed: np.ndarray) -> Tuple[float, float]:
    """``(psnr_db, max_abs_error)`` of a reconstruction, from one difference.

    The same operations, and so the same bits, as :func:`psnr` and
    ``max |x - x^|`` taken separately; the PSNR peak is the value range
    of ``original`` in the dtype it is handed over in.
    """
    diff = _difference(original, reconstructed)
    mse = float(np.mean(diff * diff))
    return psnr_from_mse(mse, original), float(np.max(np.abs(diff, out=diff)))


def normalized_rmse(original: np.ndarray, reconstructed: np.ndarray) -> float:
    """Root mean squared error normalised by the value range of ``original``.

    A constant original field yields 0.0 when the reconstruction is exact
    and ``inf`` otherwise (there is no meaningful normalisation).
    """
    mse = mean_squared_error(original, reconstructed)
    rng = value_range(original)
    if rng == 0.0:
        return 0.0 if mse == 0.0 else float("inf")
    return float(math.sqrt(mse) / rng)


def psnr(original: np.ndarray, reconstructed: np.ndarray) -> float:
    """Peak signal-to-noise ratio in dB, using the value range as the peak.

    Matches the definition used by Z-checker and the paper:
    ``PSNR = 20 log10(range) - 10 log10(MSE)``.  Identical arrays return
    ``inf``.
    """
    return psnr_from_mse(mean_squared_error(original, reconstructed), original)


def psnr_from_mse(mse: float, original: np.ndarray) -> float:
    """:func:`psnr` for a caller that already holds the mean squared error."""
    if mse == 0.0:
        return float("inf")
    rng = value_range(original)
    if rng == 0.0:
        return float("-inf")
    return float(20.0 * math.log10(rng) - 10.0 * math.log10(mse))


def shannon_entropy(symbols: np.ndarray) -> float:
    """Shannon entropy (bits/symbol) of an integer symbol array."""
    arr = np.asarray(symbols).ravel()
    if arr.size == 0:
        return 0.0
    _, counts = np.unique(arr, return_counts=True)
    probs = counts.astype(np.float64) / arr.size
    return float(-np.sum(probs * np.log2(probs)))


def byte_entropy(data: np.ndarray) -> float:
    """Byte-level information entropy of an array's raw memory.

    The paper uses this as a data-based feature describing the
    "chaos level" of a dataset; values are in ``[0, 8]`` bits/byte.
    """
    arr = np.asarray(data)
    raw = np.frombuffer(np.ascontiguousarray(arr).tobytes(), dtype=np.uint8)
    if raw.size == 0:
        return 0.0
    counts = np.bincount(raw, minlength=256)
    probs = counts[counts > 0].astype(np.float64) / raw.size
    return float(-np.sum(probs * np.log2(probs)))


@dataclass(frozen=True)
class DataSummary:
    """Basic per-field statistics (Table I of the paper)."""

    minimum: float
    maximum: float
    value_range: float
    mean: float
    std: float
    entropy: float
    size: int

    def as_dict(self) -> Dict[str, float]:
        """Return the summary as a plain dictionary."""
        return asdict(self)


def summarize(data: np.ndarray) -> DataSummary:
    """Compute the :class:`DataSummary` of a field."""
    arr = _as_float_array(data)
    return DataSummary(
        minimum=float(arr.min()),
        maximum=float(arr.max()),
        value_range=float(arr.max() - arr.min()),
        mean=float(arr.mean()),
        std=float(arr.std()),
        entropy=byte_entropy(arr),
        size=int(arr.size),
    )
