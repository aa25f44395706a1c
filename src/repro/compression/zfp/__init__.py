"""Transform-based (ZFP-like) compression baseline."""

from __future__ import annotations

from .transform import BlockTransformPredictor

__all__ = ["BlockTransformPredictor"]
