"""Training-set construction for the quality predictor.

The paper sweeps 11 error bounds from 1e-6 to 1e-1 over every file of
every application, records the measured compression ratio / time / PSNR,
and trains on a fraction (30-50 %) of the files.  The builder here does
exactly that against the synthetic datasets (or any list of fields).
"""

from __future__ import annotations

import gc
from dataclasses import dataclass, field
from typing import Iterable, List, Sequence, Tuple

import numpy as np

from ..compression import ErrorBound, create_compressor
from ..datasets.base import Field
from ..features.extractor import FeatureExtractor
from ..utils.rng import rng_from_seed
from .records import QualityRecord

__all__ = ["TrainingSetBuilder", "build_training_records", "train_test_split_records", "DEFAULT_ERROR_BOUNDS"]

#: The paper's sweep: 11 value-range-relative bounds from 1e-6 to 1e-1.
DEFAULT_ERROR_BOUNDS: Tuple[float, ...] = (
    1e-6, 3e-6, 1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 1e-1,
)


@dataclass
class TrainingSetBuilder:
    """Measure compression outcomes and collect quality records."""

    error_bounds: Sequence[float] = DEFAULT_ERROR_BOUNDS
    compressors: Sequence[str] = ("sz3",)
    extractor: FeatureExtractor = field(default_factory=FeatureExtractor, init=False)
    _records: List[QualityRecord] = field(default_factory=list)

    @property
    def records(self) -> List[QualityRecord]:
        """All records collected so far."""
        return list(self._records)

    def add_field(self, data_field: Field) -> List[QualityRecord]:
        """Run the sweep for one field, returning the new records."""
        new_records: List[QualityRecord] = []
        for compressor_name in self.compressors:
            compressor = create_compressor(compressor_name)
            for rel_bound in self.error_bounds:
                bound = ErrorBound.relative(rel_bound)
                eb_abs = bound.absolute_for(data_field.data)
                extraction = self.extractor.extract(
                    data_field.data, eb_abs, compressor=compressor_name
                )
                # As timeit does, the collector waits: a full collection
                # (tens of ms) inside a call of a few ms would become one
                # record's compression time, which the time model fits.
                collecting = gc.isenabled()
                gc.disable()
                try:
                    result = compressor.compress(data_field.data, bound, collect_quality=True)
                finally:
                    if collecting:
                        gc.enable()
                record = QualityRecord(
                    features=extraction.features,
                    compression_ratio=result.compression_ratio,
                    compression_time_s=result.stats.compression_time_s,
                    psnr_db=result.stats.psnr_db,
                    application=data_field.application,
                    field_name=data_field.name,
                    snapshot=data_field.snapshot,
                    error_bound_abs=eb_abs,
                    error_bound_label=f"{rel_bound:g}",
                    compressor=compressor_name,
                    num_elements=int(np.asarray(data_field.data).size),
                    extra={
                        "decompression_time_s": result.stats.decompression_time_s,
                        "extraction_time_s": extraction.extraction_time_s,
                        "max_abs_error": result.stats.max_abs_error or 0.0,
                    },
                )
                self._records.append(record)
                new_records.append(record)
        return new_records

    def add_fields(self, fields: Iterable[Field]) -> List[QualityRecord]:
        """Run the sweep for many fields."""
        out: List[QualityRecord] = []
        for data_field in fields:
            out.extend(self.add_field(data_field))
        return out


def build_training_records(
    fields: Iterable[Field],
    error_bounds: Sequence[float] = DEFAULT_ERROR_BOUNDS,
    compressors: Sequence[str] = ("sz3",),
) -> List[QualityRecord]:
    """Convenience wrapper: sweep all fields and return the records."""
    builder = TrainingSetBuilder(error_bounds=error_bounds, compressors=compressors)
    builder.add_fields(fields)
    return builder.records


def train_test_split_records(
    records: List[QualityRecord],
    train_fraction: float = 0.3,
    seed: int = 0,
) -> Tuple[List[QualityRecord], List[QualityRecord]]:
    """Split records into train/test sets, a whole file at a time.

    The paper's protocol: every error-bound sample of a given file lands
    in the same partition, so the test files are genuinely unseen.
    """
    if not 0.0 < train_fraction < 1.0:
        raise ValueError(f"train fraction must be in (0, 1), got {train_fraction}")
    rng = rng_from_seed(seed)
    shuffled = sorted({(r.application, r.field_name, r.snapshot) for r in records})
    rng.shuffle(shuffled)
    n_train = max(1, int(round(len(shuffled) * train_fraction)))
    train_keys = set(shuffled[:n_train])
    train = [r for r in records if (r.application, r.field_name, r.snapshot) in train_keys]
    test = [r for r in records if (r.application, r.field_name, r.snapshot) not in train_keys]
    if not test:
        test = train[-1:]
    return train, test
