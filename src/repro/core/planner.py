"""Compression planning: choose the best-qualified configuration.

Capability 1 of the paper: before a transfer starts, the quality
predictor is run (remotely, via FuncX, on the endpoint where the data
live) against a handful of candidate configurations, and the best one
satisfying the user's quality requirement is selected.  Users who know
their configuration can bypass the predictor entirely.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..compression import ErrorBound
from ..datasets.base import Field
from ..errors import OrchestrationError
from ..prediction.quality_model import QualityPrediction, QualityPredictor
from .config import OcelotConfig

__all__ = ["CompressionPlan", "CompressionPlanner"]


@dataclass
class CompressionPlan:
    """The configuration a transfer will use for compression."""

    compressor: str
    error_bound: ErrorBound
    predicted: Optional[QualityPrediction] = None
    used_predictor: bool = False


class CompressionPlanner:
    """Select the compression configuration for a dataset transfer."""

    def __init__(
        self,
        config: OcelotConfig,
        predictor: Optional[QualityPredictor] = None,
    ) -> None:
        self.config = config
        self.predictor = predictor

    def plan(
        self,
        representative: Optional[Field] = None,
        candidate_error_bounds: Optional[Sequence[float]] = None,
        compressors: Optional[Sequence[str]] = None,
    ) -> CompressionPlan:
        """Build the compression plan.

        When prediction is enabled (and a fitted predictor plus a
        representative field are available), the planner sweeps the
        candidate configurations and picks the highest-ratio one whose
        predicted PSNR clears ``config.min_psnr_db``; otherwise the fixed
        configuration from :class:`OcelotConfig` is used.
        """
        use_prediction = (
            self.config.use_prediction
            and self.predictor is not None
            and self.predictor.is_fitted
            and representative is not None
        )
        if not use_prediction:
            if self.config.use_prediction and self.predictor is None:
                raise OrchestrationError(
                    "use_prediction is enabled but no fitted quality predictor was provided"
                )
            return CompressionPlan(
                compressor=self.config.compressor,
                error_bound=self.config.resolved_error_bound(),
                used_predictor=False,
            )
        bounds = list(candidate_error_bounds or self.config.candidate_error_bounds)
        names = list(compressors or [self.config.compressor])
        data = np.asarray(representative.data)
        best = self.predictor.recommend(
            data,
            error_bounds=bounds,
            compressors=names,
            min_psnr_db=self.config.min_psnr_db,
        )
        # Convert the winning absolute bound back to a relative request so
        # each file of the dataset resolves it against its own value range
        # (the paper's bounds are value-range relative).
        rng = float(data.max() - data.min())
        rel_value = best.error_bound_abs / rng if rng > 0 else self.config.error_bound
        rel_value = min(max(rel_value, 1e-12), 1.0)
        return CompressionPlan(
            compressor=best.compressor,
            error_bound=ErrorBound.relative(rel_value),
            predicted=best,
            used_predictor=True,
        )
