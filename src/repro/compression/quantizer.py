"""Linear-scale quantisation with literal escape.

Prediction-based compressors in the SZ family quantise the *prediction
residual* onto a uniform grid of width ``2 * error_bound``.  Residuals
whose quantisation index exceeds the bin radius are marked
*unpredictable* and stored as full-precision literals; this keeps the
symbol alphabet bounded, which is what makes Huffman coding effective.

The quantisation bins produced here are exactly the intermediate values
the paper's compressor-based features (p0, P0, quantisation entropy,
run-length estimator) are computed from.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import CompressionError

__all__ = ["LinearQuantizer", "QuantizationResult"]

#: Default bin radius (matches SZ's default of 2^15 bins on either side).
DEFAULT_BIN_RADIUS = 32768


@dataclass
class QuantizationResult:
    """Output of :meth:`LinearQuantizer.quantize`.

    Attributes:
        codes: integer quantisation bins, 0 where unpredictable.
        unpredictable_mask: boolean mask of literal (escaped) positions.
        literals: original values at the escaped positions (float64).
        approximations: residual approximations ``codes * 2 * eb`` with
            literals patched in (so callers can reconstruct directly).
    """

    codes: np.ndarray
    unpredictable_mask: np.ndarray
    literals: np.ndarray
    approximations: np.ndarray


class LinearQuantizer:
    """Uniform residual quantiser with a bounded symbol alphabet."""

    def __init__(self, bin_radius: int = DEFAULT_BIN_RADIUS) -> None:
        if bin_radius < 1:
            raise CompressionError(f"bin radius must be >= 1, got {bin_radius}")
        self.bin_radius = int(bin_radius)

    def quantize(self, residuals: np.ndarray, error_bound: float) -> QuantizationResult:
        """Quantise residuals onto a grid of width ``2 * error_bound``.

        Every non-escaped approximation is guaranteed to lie within
        ``error_bound`` of the true residual.
        """
        if error_bound <= 0:
            raise CompressionError(f"error bound must be positive, got {error_bound}")
        res = np.asarray(residuals, dtype=np.float64)
        step = 2.0 * float(error_bound)
        raw = np.rint(res / step)
        # Values beyond the representable bin range (or non-finite) escape
        # to literal storage.  The negated ``<=`` comparison classifies
        # NaN as out-of-range without an explicit finiteness pass.
        out_of_range = ~(np.abs(raw) <= self.bin_radius)
        if not out_of_range.any():
            # Fast path for the common fully-predictable case: no literal
            # bookkeeping, no masked writes.
            codes = raw.astype(np.int64)
            return QuantizationResult(
                codes=codes,
                unpredictable_mask=out_of_range,
                literals=np.zeros(0, dtype=np.float64),
                approximations=codes * step,
            )
        codes = np.where(out_of_range, 0.0, raw).astype(np.int64)
        approximations = codes.astype(np.float64) * step
        literals = res[out_of_range].astype(np.float64)
        approximations[out_of_range] = literals
        return QuantizationResult(
            codes=codes,
            unpredictable_mask=out_of_range,
            literals=literals,
            approximations=approximations,
        )

    def dequantize(
        self,
        codes: np.ndarray,
        unpredictable_mask: np.ndarray,
        literals: np.ndarray,
        error_bound: float,
    ) -> np.ndarray:
        """Invert :meth:`quantize`, returning residual approximations."""
        if error_bound <= 0:
            raise CompressionError(f"error bound must be positive, got {error_bound}")
        step = 2.0 * float(error_bound)
        approx = np.asarray(codes, dtype=np.float64) * step
        mask = np.asarray(unpredictable_mask, dtype=bool)
        lits = np.asarray(literals, dtype=np.float64)
        if int(mask.sum()) != lits.size:
            raise CompressionError(
                f"literal count mismatch: mask has {int(mask.sum())} escapes "
                f"but {lits.size} literals were provided"
            )
        approx[mask] = lits
        return approx
