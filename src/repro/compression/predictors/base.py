"""Predictor interface shared by Lorenzo, regression and interpolation.

A predictor converts an array into a stream of integer quantisation codes
plus auxiliary payloads (literals, coefficients, base grids).  The
quantisation codes it emits are the "quantisation bins" the paper's
compressor-based features are computed from.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Any, Dict, Tuple

import numpy as np

__all__ = ["PredictorOutput", "Predictor"]


@dataclass
class PredictorOutput:
    """Result of encoding an array with a predictor.

    Attributes:
        codes: flat int64 array of quantisation codes (one per element or
            per predicted element, predictor-specific but self-consistent
            with ``decode``).
        unpredictable_mask: flat boolean array marking literal escapes in
            ``codes`` order.
        literals: float64 literal values for escaped positions.
        aux: named auxiliary arrays needed by ``decode`` (regression
            coefficients, interpolation base grid, ...).
        meta: JSON-serialisable metadata needed by ``decode``.
        reconstruction: the reconstruction the decoder will produce; used
            by callers for quality statistics without a decode pass.
    """

    codes: np.ndarray
    unpredictable_mask: np.ndarray
    literals: np.ndarray
    aux: Dict[str, np.ndarray] = field(default_factory=dict)
    meta: Dict[str, Any] = field(default_factory=dict)
    reconstruction: np.ndarray = None  # type: ignore[assignment]


class Predictor(abc.ABC):
    """Abstract predictor: encodes to quantisation codes, decodes back."""

    #: Registry/name used in pipeline configuration and blob headers.
    name: str = "abstract"

    @abc.abstractmethod
    def encode(self, data: np.ndarray, error_bound_abs: float) -> PredictorOutput:
        """Encode ``data`` under an absolute error bound."""

    @abc.abstractmethod
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
        """Reconstruct an array of ``shape`` from an encoding."""

    def encode_block(self, block: np.ndarray, error_bound_abs: float) -> PredictorOutput:
        """Encode one independent block of a larger array.

        Blocks carry no neighbour context, so the default is exactly
        :meth:`encode` on a contiguous copy; predictors whose state depends
        on global array geometry may override this.
        """
        return self.encode(np.ascontiguousarray(block), error_bound_abs)

    def decode_block(
        self,
        codes: np.ndarray,
        unpredictable_mask: np.ndarray,
        literals: np.ndarray,
        aux: Dict[str, np.ndarray],
        meta: Dict[str, Any],
        block_shape: Tuple[int, ...],
        error_bound_abs: float,
    ) -> np.ndarray:
        """Reconstruct one block previously produced by :meth:`encode_block`."""
        return self.decode(
            codes, unpredictable_mask, literals, aux, meta, block_shape, error_bound_abs
        )
