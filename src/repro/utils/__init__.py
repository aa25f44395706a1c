"""Shared utilities: statistics, sampling, clocks and logging."""

from __future__ import annotations

from .stats import (
    byte_entropy,
    mean_squared_error,
    normalized_rmse,
    psnr,
    shannon_entropy,
    value_range,
    DataSummary,
    summarize,
)
from .sampling import strided_sample, block_sample, sample_indices
from .clock import SimulationClock
from .sizes import format_bytes, format_duration, format_rate
from .rng import rng_from_seed, derive_seed

__all__ = [
    "byte_entropy",
    "mean_squared_error",
    "normalized_rmse",
    "psnr",
    "shannon_entropy",
    "value_range",
    "DataSummary",
    "summarize",
    "strided_sample",
    "block_sample",
    "sample_indices",
    "SimulationClock",
    "format_bytes",
    "format_duration",
    "format_rate",
    "rng_from_seed",
    "derive_seed",
]
