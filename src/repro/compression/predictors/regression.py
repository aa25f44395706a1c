"""Block-wise linear-regression predictor (the SZ2 "regression" stage).

The array is partitioned into fixed-size hyper-blocks; within each block
the data are approximated by an affine function of the block-local
coordinates (a least-squares plane fit).  The fitted coefficients are
stored in the compressed stream, so decoding does not depend on
neighbouring reconstructed values and the whole fit/predict step
vectorises across blocks.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

import numpy as np

from ...errors import CompressionError
from .base import Predictor, PredictorOutput
from ..quantizer import LinearQuantizer

__all__ = ["RegressionPredictor"]


class RegressionPredictor(Predictor):
    """Least-squares plane fit per block, residuals quantised."""

    name = "regression"

    def __init__(self, block_size: int = 8, bin_radius: int = 32768) -> None:
        if block_size < 2:
            raise CompressionError(f"block size must be >= 2, got {block_size}")
        self.block_size = int(block_size)
        self._quantizer = LinearQuantizer(bin_radius=bin_radius)

    # ------------------------------------------------------------------ #
    # Encoding
    # ------------------------------------------------------------------ #
    def encode(self, data: np.ndarray, error_bound_abs: float) -> PredictorOutput:
        if error_bound_abs <= 0:
            raise CompressionError(f"error bound must be positive, got {error_bound_abs}")
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim > 4:
            raise CompressionError("regression predictor supports at most 4-D arrays")
        padded, pad_widths = self._pad(arr)
        # Coefficients are stored as float32; the encoder must predict from
        # the *stored* values so encode/decode predictions match exactly and
        # the error bound is preserved end to end.
        coeffs = self._fit_blocks(padded).astype(np.float32)
        prediction = self._predict_from_coeffs(coeffs, padded.shape)
        prediction = self._crop(prediction, arr.shape)
        residuals = arr - prediction
        quant = self._quantizer.quantize(residuals.ravel(), error_bound_abs)
        reconstruction = prediction + quant.approximations.reshape(arr.shape)
        meta = {
            "block_size": self.block_size,
            "padded_shape": list(padded.shape),
            "pad_widths": [list(p) for p in pad_widths],
            "bin_radius": self._quantizer.bin_radius,
        }
        return PredictorOutput(
            codes=quant.codes,
            unpredictable_mask=quant.unpredictable_mask,
            literals=quant.literals,
            aux={"coefficients": coeffs},
            meta=meta,
            reconstruction=reconstruction,
        )

    def decode(
        self,
        codes: np.ndarray,
        unpredictable_mask: np.ndarray,
        literals: np.ndarray,
        aux: Dict[str, np.ndarray],
        meta: Dict[str, Any],
        shape: Tuple[int, ...],
        error_bound_abs: float,
    ) -> np.ndarray:
        coeffs = np.asarray(aux["coefficients"], dtype=np.float32)
        padded_shape = tuple(int(s) for s in meta["padded_shape"])
        prediction = self._predict_from_coeffs(coeffs, padded_shape)
        prediction = self._crop(prediction, shape)
        residuals = self._quantizer.dequantize(
            codes, unpredictable_mask, literals, error_bound_abs
        ).reshape(shape)
        return prediction + residuals

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _pad(self, arr: np.ndarray) -> Tuple[np.ndarray, List[Tuple[int, int]]]:
        """Pad each axis (edge mode) to a multiple of the block size."""
        widths = []
        for dim in arr.shape:
            remainder = dim % self.block_size
            pad = 0 if remainder == 0 else self.block_size - remainder
            widths.append((0, pad))
        if any(w[1] for w in widths):
            arr = np.pad(arr, widths, mode="edge")
        return arr, widths

    @staticmethod
    def _crop(arr: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
        slicer = tuple(slice(0, s) for s in shape)
        return arr[slicer]

    def _block_view(self, padded: np.ndarray) -> np.ndarray:
        """Reshape to (blocks..., block_size^ndim) with block axes leading."""
        b = self.block_size
        ndim = padded.ndim
        new_shape = []
        for dim in padded.shape:
            new_shape.extend([dim // b, b])
        view = padded.reshape(new_shape)
        # Move all block-count axes first, all within-block axes last.
        order = list(range(0, 2 * ndim, 2)) + list(range(1, 2 * ndim, 2))
        return view.transpose(order)

    def _fit_blocks(self, padded: np.ndarray) -> np.ndarray:
        """Least-squares affine fit per block.

        Returns an array of shape ``blocks_shape + (ndim + 1,)`` holding the
        intercept followed by one slope per axis; the coordinates are the
        centred block-local indices, which makes the fit a closed form of
        per-block means and first moments.
        """
        b = self.block_size
        ndim = padded.ndim
        blocks = self._block_view(padded).astype(np.float64)
        block_axes = tuple(range(ndim, 2 * ndim))
        mean = blocks.mean(axis=block_axes)
        # Centred coordinate ramp along a block axis and its second moment.
        ramp = np.arange(b, dtype=np.float64) - (b - 1) / 2.0
        ramp_sq_sum = float(np.sum(ramp * ramp))
        denom = ramp_sq_sum * (b ** (ndim - 1))
        coeffs = np.empty(mean.shape + (ndim + 1,), dtype=np.float64)
        coeffs[..., 0] = mean
        for axis in range(ndim):
            shape = [1] * ndim
            shape[axis] = b
            ramp_nd = ramp.reshape(shape)
            moment = np.sum(blocks * ramp_nd, axis=block_axes)
            coeffs[..., axis + 1] = moment / denom
        return coeffs

    def _predict_from_coeffs(self, coeffs: np.ndarray, padded_shape: Tuple[int, ...]) -> np.ndarray:
        """Evaluate the per-block affine models over the padded grid."""
        b = self.block_size
        ndim = len(padded_shape)
        coeffs64 = np.asarray(coeffs, dtype=np.float64)
        blocks_shape = coeffs64.shape[:-1]
        ramp = np.arange(b, dtype=np.float64) - (b - 1) / 2.0
        # Start from the intercept broadcast over within-block axes.
        pred = np.broadcast_to(
            coeffs64[..., 0].reshape(blocks_shape + (1,) * ndim),
            blocks_shape + (b,) * ndim,
        ).copy()
        for axis in range(ndim):
            shape = [1] * (len(blocks_shape) + ndim)
            shape[len(blocks_shape) + axis] = b
            ramp_nd = ramp.reshape(shape)
            slope = coeffs64[..., axis + 1].reshape(blocks_shape + (1,) * ndim)
            pred += slope * ramp_nd
        # Undo the transpose/reshape performed by _block_view.
        order = []
        for i in range(ndim):
            order.extend([i, ndim + i])
        pred = pred.transpose(order)
        return pred.reshape(padded_shape)
