"""Block orthonormal-transform predictor (ZFP-like baseline).

ZFP partitions the array into 4^d blocks, applies a near-orthogonal
decorrelating transform and encodes the coefficients with embedded
bit-plane coding.  This baseline keeps the same structure — blockwise
orthonormal DCT-II followed by uniform coefficient quantisation — while
reusing the entropy/lossless stages of the prediction pipeline.

Because the transform is orthonormal, bounding every coefficient error by
``eb / sqrt(block_volume)`` bounds the point-wise reconstruction error by
``eb``; the baseline therefore still honours the absolute error bound
(conservatively), which lets the rest of the system treat it uniformly.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

import numpy as np
from scipy.fft import dctn, idctn

from ...errors import CompressionError
from ..predictors.base import Predictor, PredictorOutput
from ..quantizer import LinearQuantizer

__all__ = ["BlockTransformPredictor"]


class BlockTransformPredictor(Predictor):
    """Blockwise orthonormal DCT with uniform coefficient quantisation."""

    name = "block-transform"

    def __init__(self, block_size: int = 4, bin_radius: int = 1 << 30) -> None:
        if block_size < 2:
            raise CompressionError(f"block size must be >= 2, got {block_size}")
        self.block_size = int(block_size)
        # Coefficients (especially DC) can be large; use a wide bin range so
        # escapes are rare and the error bound derivation stays simple.
        self._quantizer = LinearQuantizer(bin_radius=bin_radius)

    # ------------------------------------------------------------------ #
    def _pad(self, arr: np.ndarray) -> Tuple[np.ndarray, List[Tuple[int, int]]]:
        widths = []
        for dim in arr.shape:
            remainder = dim % self.block_size
            pad = 0 if remainder == 0 else self.block_size - remainder
            widths.append((0, pad))
        if any(w[1] for w in widths):
            arr = np.pad(arr, widths, mode="edge")
        return arr, widths

    def _block_axes_view(self, padded: np.ndarray) -> np.ndarray:
        b = self.block_size
        ndim = padded.ndim
        new_shape = []
        for dim in padded.shape:
            new_shape.extend([dim // b, b])
        view = padded.reshape(new_shape)
        order = list(range(0, 2 * ndim, 2)) + list(range(1, 2 * ndim, 2))
        return view.transpose(order)

    def _unblock(self, blocks: np.ndarray, padded_shape: Tuple[int, ...]) -> np.ndarray:
        ndim = len(padded_shape)
        order = []
        for i in range(ndim):
            order.extend([i, ndim + i])
        return blocks.transpose(order).reshape(padded_shape)

    # ------------------------------------------------------------------ #
    def encode(self, data: np.ndarray, error_bound_abs: float) -> PredictorOutput:
        if error_bound_abs <= 0:
            raise CompressionError(f"error bound must be positive, got {error_bound_abs}")
        arr = np.asarray(data, dtype=np.float64)
        padded, _ = self._pad(arr)
        ndim = arr.ndim
        blocks = self._block_axes_view(padded)
        block_axes = tuple(range(ndim, 2 * ndim))
        coeffs = dctn(blocks, axes=block_axes, norm="ortho")
        block_volume = self.block_size**ndim
        coeff_bound = float(error_bound_abs) / float(np.sqrt(block_volume))
        quant = self._quantizer.quantize(coeffs.ravel(), coeff_bound)
        coeff_recon = quant.approximations.reshape(coeffs.shape)
        recon_blocks = idctn(coeff_recon, axes=block_axes, norm="ortho")
        recon = self._unblock(recon_blocks, padded.shape)
        recon = recon[tuple(slice(0, s) for s in arr.shape)]
        meta = {
            "block_size": self.block_size,
            "padded_shape": list(padded.shape),
            "coeff_bound": coeff_bound,
        }
        return PredictorOutput(
            codes=quant.codes,
            unpredictable_mask=quant.unpredictable_mask,
            literals=quant.literals,
            aux={},
            meta=meta,
            reconstruction=recon,
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
        padded_shape = tuple(int(s) for s in meta["padded_shape"])
        coeff_bound = float(meta["coeff_bound"])
        ndim = len(shape)
        b = int(meta["block_size"])
        if b != self.block_size:
            # Respect the block size recorded in the stream.
            self.block_size = b
        blocks_shape = tuple(dim // b for dim in padded_shape) + (b,) * ndim
        coeff_values = self._quantizer.dequantize(
            codes, unpredictable_mask, literals, coeff_bound
        ).reshape(blocks_shape)
        block_axes = tuple(range(ndim, 2 * ndim))
        recon_blocks = idctn(coeff_values, axes=block_axes, norm="ortho")
        recon = self._unblock(recon_blocks, padded_shape)
        return recon[tuple(slice(0, s) for s in shape)]
