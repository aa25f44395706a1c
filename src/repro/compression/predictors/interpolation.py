"""Multi-level interpolation predictor (the SZ3 "interp" algorithm).

Compression proceeds level by level from a coarse grid to the full
resolution.  Points on the coarsest grid are stored exactly; at each
level the points midway between already-reconstructed grid points are
predicted by (linear or cubic) interpolation along one axis at a time,
and the prediction residual is quantised.  Because every prediction only
uses values reconstructed in *earlier* passes, each pass vectorises over
all of its target points while remaining bit-exact between encoder and
decoder.

The pass schedule is slices: a pass's targets and their left, right
and far neighbours are strided basic slices of the array, so every pass
reads and writes views of the reconstruction — no gather, no scatter
index.  The schedule is a pure function of the array shape, compiled
once per ``(shape, order)`` and cached at module level: blocked
pipelines encode thousands of identically-shaped blocks.  Decode
dequantises a block's codes in one call, then runs the passes.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ...errors import CompressionError
from .base import Predictor, PredictorOutput
from ..quantizer import LinearQuantizer

__all__ = ["InterpolationPredictor"]


class _PassPlan:
    """Geometry of one interpolation pass, as basic slices of the array.

    ``target``, ``left``, ``right``, ``far_left`` and ``far_right`` index
    the whole array (views).  ``paired``, ``lone`` and ``cubic`` index the
    pass's target-shaped prediction: the targets with a right neighbour,
    the last one when it has none (its base is ``left + left``), and the
    interior ones cubic interpolation reaches.
    """

    __slots__ = (
        "target", "left", "right", "far_left", "far_right", "paired", "lone", "cubic", "size"
    )

    def __init__(self, shape: Tuple[int, ...], axis: int, step: int, order: str) -> None:
        dim, stride = shape[axis], 2 * step

        def along(axis_slice: slice) -> Tuple[slice, ...]:
            # Axes already refined this level are on the ``step`` grid,
            # the rest still on the coarse one.
            return tuple(
                axis_slice if a == axis else slice(None, None, step if a < axis else stride)
                for a in range(len(shape))
            )

        def within(axis_slice: slice) -> Tuple[slice, ...]:
            return (slice(None),) * axis + (axis_slice,)

        # Targets sit at odd multiples of ``step``; their neighbours at
        # the even multiples either side.
        paired = len(range(stride, dim, stride))
        self.target = along(slice(step, dim, stride))
        self.left = along(slice(0, dim - step, stride))
        self.right = along(slice(stride, dim, stride))
        self.paired = within(slice(0, paired))
        self.lone = within(slice(paired, None))
        self.size = math.prod(len(range(n)[s]) for n, s in zip(shape, self.target))
        self.cubic: Optional[Tuple[slice, ...]] = None
        # Cubic reaches every target but the first up to the last whose
        # far-right neighbour (three steps on) is inside the array.
        reach = len(range(step, dim - 3 * step, stride))
        if order == "cubic" and reach > 1:
            self.cubic = within(slice(1, reach))
            self.far_left = along(slice(0, stride * (reach - 1), stride))
            self.far_right = along(slice(3 * stride, 3 * stride + stride * (reach - 1), stride))


#: ``(shape, order) -> (base_stride, [pass plans])``.  Read/write races
#: under the blocked thread pool are benign (worst case a plan is built
#: twice); entries are a few tuples of slices per pass.
_PLAN_CACHE: Dict[Tuple[Tuple[int, ...], str], Tuple[int, List[_PassPlan]]] = {}
_PLAN_CACHE_LIMIT = 64


class InterpolationPredictor(Predictor):
    """SZ3-style multi-level interpolation predictor."""

    name = "interpolation"

    def __init__(self, order: str = "cubic", bin_radius: int = 32768) -> None:
        if order not in ("linear", "cubic"):
            raise CompressionError(f"interpolation order must be 'linear' or 'cubic', got {order!r}")
        self.order = order
        self._quantizer = LinearQuantizer(bin_radius=bin_radius)

    # ------------------------------------------------------------------ #
    # Pass schedule
    # ------------------------------------------------------------------ #
    @staticmethod
    def _base_stride(shape: Tuple[int, ...]) -> int:
        max_dim = max(shape)
        stride = 1
        while stride * 2 < max_dim:
            stride *= 2
        return max(stride, 1)

    def _compiled_passes(self, shape: Tuple[int, ...]) -> Tuple[int, List[_PassPlan]]:
        """``(base_stride, passes)``: from coarse to fine, halving the step
        each level, one pass per axis (empty passes dropped)."""
        key = (shape, self.order)
        cached = _PLAN_CACHE.get(key)
        if cached is None:
            base_stride = self._base_stride(shape)
            plans = [
                plan
                for level in range(base_stride.bit_length())
                for axis in range(len(shape))
                if (plan := _PassPlan(shape, axis, base_stride >> level, self.order)).size
            ]
            cached = (base_stride, plans)
            if len(_PLAN_CACHE) >= _PLAN_CACHE_LIMIT:
                _PLAN_CACHE.pop(next(iter(_PLAN_CACHE)))
            _PLAN_CACHE[key] = cached
        return cached

    # ------------------------------------------------------------------ #
    # Prediction along an axis
    # ------------------------------------------------------------------ #
    @staticmethod
    def _predict(recon: np.ndarray, plan: _PassPlan) -> np.ndarray:
        """Interpolate values at the plan's targets from views of ``recon``."""
        left = recon[plan.left]
        base = np.empty(left.shape)
        np.add(left[plan.paired], recon[plan.right], out=base[plan.paired])
        np.add(left[plan.lone], left[plan.lone], out=base[plan.lone])
        pred = 0.5 * base
        if plan.cubic is not None:
            far = recon[plan.far_left] + recon[plan.far_right]
            pred[plan.cubic] = (9.0 / 16.0) * base[plan.cubic] - (1.0 / 16.0) * far
        return pred

    # ------------------------------------------------------------------ #
    # Encode / decode
    # ------------------------------------------------------------------ #
    def encode(self, data: np.ndarray, error_bound_abs: float) -> PredictorOutput:
        if error_bound_abs <= 0:
            raise CompressionError(f"error bound must be positive, got {error_bound_abs}")
        arr = np.asarray(data, dtype=np.float64)
        shape = arr.shape
        recon = np.zeros_like(arr)
        base_stride, plans = self._compiled_passes(shape)
        base_slicer = tuple(slice(None, None, base_stride) for _ in shape)
        base_values = arr[base_slicer].copy()
        recon[base_slicer] = base_values

        # (codes, mask, literals) per pass, after an empty row for a shape
        # with no passes.
        parts = [(np.zeros(0, np.int64), np.zeros(0, bool), np.zeros(0, np.float64))]
        for plan in plans:
            pred = self._predict(recon, plan)
            quant = self._quantizer.quantize((arr[plan.target] - pred).ravel(), error_bound_abs)
            recon[plan.target] = pred + quant.approximations.reshape(pred.shape)
            parts.append((quant.codes, quant.unpredictable_mask, quant.literals))
        codes, masks, literals = (np.concatenate(column) for column in zip(*parts))
        meta = {
            "order": self.order,
            "base_stride": base_stride,
            "bin_radius": self._quantizer.bin_radius,
        }
        return PredictorOutput(
            codes=codes,
            unpredictable_mask=masks,
            literals=literals,
            aux={"base": base_values.astype(np.float64)},
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
        recon = np.zeros(shape, dtype=np.float64)
        base_stride = int(meta["base_stride"])
        base_slicer = tuple(slice(None, None, base_stride) for _ in shape)
        base = np.asarray(aux["base"], dtype=np.float64)
        recon[base_slicer] = base.reshape(recon[base_slicer].shape)

        codes = np.asarray(codes, dtype=np.int64)
        stored_stride, plans = self._compiled_passes(tuple(shape))
        if stored_stride != base_stride:
            raise CompressionError(
                f"interpolation base stride mismatch: stream says {base_stride}, "
                f"shape implies {stored_stride}"
            )
        need = sum(plan.size for plan in plans)
        if need > codes.size:
            raise CompressionError(
                f"interpolation code stream is truncated: need {need} codes "
                f"but only {codes.size} are available"
            )
        if need != codes.size:
            raise CompressionError(
                f"interpolation decode consumed {need} codes but stream has {codes.size}"
            )
        # One call for the block; it rejects a literal count that differs
        # from the escape count.
        residuals = self._quantizer.dequantize(codes, unpredictable_mask, literals, error_bound_abs)
        code_pos = 0
        for plan in plans:
            pred = self._predict(recon, plan)
            pass_residuals = residuals[code_pos : code_pos + plan.size]
            recon[plan.target] = pred + pass_residuals.reshape(pred.shape)
            code_pos += plan.size
        return recon

    def describe(self) -> Dict[str, Any]:
        return {"name": self.name, "order": self.order}
