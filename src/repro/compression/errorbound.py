"""Error-bound specification for error-bounded lossy compression.

The paper (and the SZ family of compressors) primarily uses two modes:

* ``ABS`` — an absolute bound: every reconstructed value must be within
  ``bound`` of the original value.
* ``REL`` — a value-range-relative bound: the absolute bound is
  ``bound * (max - min)`` of the field being compressed.  The error
  bounds "1e-6 … 1e-1" swept in the paper's evaluation are of this kind.

``PSNR`` mode is provided as a convenience: it converts a PSNR target to
an absolute bound assuming uniformly distributed quantisation error.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError
from ..utils.stats import value_range

__all__ = ["ErrorBoundMode", "ErrorBound"]


class ErrorBoundMode(str, enum.Enum):
    """Supported error-bound modes."""

    ABS = "abs"
    REL = "rel"
    PSNR = "psnr"

    @classmethod
    def parse(cls, value: "str | ErrorBoundMode") -> "ErrorBoundMode":
        """Parse a mode from a string (case-insensitive) or pass one through."""
        if isinstance(value, ErrorBoundMode):
            return value
        try:
            return cls(value.lower())
        except (ValueError, AttributeError) as exc:
            valid = ", ".join(m.value for m in cls)
            raise ConfigurationError(
                f"unknown error bound mode {value!r}; expected one of: {valid}"
            ) from exc


@dataclass(frozen=True)
class ErrorBound:
    """A user error-bound request: a mode and a value.

    Use :meth:`absolute_for` to resolve the request into the absolute
    bound actually enforced for a given field.
    """

    value: float
    mode: ErrorBoundMode = ErrorBoundMode.REL

    def __post_init__(self) -> None:
        mode = ErrorBoundMode.parse(self.mode)
        object.__setattr__(self, "mode", mode)
        if not math.isfinite(self.value) or self.value <= 0:
            raise ConfigurationError(f"error bound must be positive and finite, got {self.value}")
        if mode is ErrorBoundMode.REL and self.value > 1.0:
            raise ConfigurationError(
                f"relative error bound must be <= 1.0, got {self.value}"
            )

    @classmethod
    def absolute(cls, value: float) -> "ErrorBound":
        """Construct an absolute error bound."""
        return cls(value=value, mode=ErrorBoundMode.ABS)

    @classmethod
    def relative(cls, value: float) -> "ErrorBound":
        """Construct a value-range-relative error bound."""
        return cls(value=value, mode=ErrorBoundMode.REL)

    def absolute_for(self, data: np.ndarray) -> float:
        """Resolve this request into an absolute bound for ``data``.

        A constant field has zero value range; in that case relative and
        PSNR modes fall back to a tiny absolute bound so compression still
        proceeds (every prediction is exact anyway).
        """
        if self.mode is ErrorBoundMode.ABS:
            return float(self.value)
        rng = value_range(data)
        if rng == 0.0:
            return float(np.finfo(np.float64).tiny)
        if self.mode is ErrorBoundMode.REL:
            return float(self.value * rng)
        # PSNR mode: for uniform error in [-e, e], MSE = e^2 / 3, so
        # PSNR = 20 log10(range) - 10 log10(e^2/3).  Solve for e.
        target = float(self.value)
        e = rng * math.sqrt(3.0) * (10.0 ** (-target / 20.0))
        return float(e)

    def describe(self) -> str:
        """Human-readable description, e.g. ``rel=1e-03``."""
        return f"{self.mode.value}={self.value:g}"
