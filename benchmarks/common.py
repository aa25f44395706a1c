"""Shared helpers for the benchmark suite.

Every benchmark regenerates one table or figure of the paper on the
synthetic testbed.  The helpers here keep the benchmarks short: dataset
generation at benchmark scale, quality-record sweeps, simple statistics
(Pearson correlation), and row printing so each benchmark emits the same
rows/series the paper reports.

Tests here are of two kinds.  **Deterministic** tests assert only values
two runs reproduce exactly (ratios, PSNR, byte/block/hit/step counts,
simulated seconds).  **Same-run ratio** tests time a paper-facing
overhead, or a kernel against an in-tree reference implementation no PR
is meant to speed up, both sides through :func:`best_of` in one test.
Absolute MB/s and wall ratios between two production configurations are
``bench/``'s job (medians, quartiles, alternating pairs); nothing here
stores a number.  ``tests/test_benchmarks_ratchet.py`` enforces it.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Iterable, List, Sequence, Tuple

import numpy as np

from repro.datasets import generate_application
from repro.datasets.base import Field
from repro.prediction import QualityPredictor, build_training_records, train_test_split_records
from repro.prediction.records import QualityRecord

#: Linear scale applied to the paper's full-resolution dimensions in the
#: benchmark suite (documented in EXPERIMENTS.md).
SWEEP_SCALE = 0.05

#: Error bounds used for benchmark sweeps (subset of the paper's 11-point sweep).
SWEEP_ERROR_BOUNDS: Tuple[float, ...] = (1e-5, 1e-4, 1e-3, 1e-2, 1e-1)

#: Compressor used for benchmark sweeps (deflate-backed SZ3 pipeline).
SWEEP_COMPRESSOR = "sz3-fast"


def bench_fields(app: str, snapshots: int = 1, max_fields: int | None = None,
                 scale: float = SWEEP_SCALE, seed: int = 0) -> List[Field]:
    """Generate benchmark-scale fields for an application."""
    dataset = generate_application(app, snapshots=snapshots, scale=scale, seed=seed)
    fields = dataset.fields
    if max_fields is not None:
        fields = fields[:max_fields]
    return fields


def bench_records(apps: Iterable[str], snapshots: int = 1, max_fields: int | None = None,
                  error_bounds: Sequence[float] = SWEEP_ERROR_BOUNDS,
                  compressor: str = SWEEP_COMPRESSOR, seed: int = 0) -> List[QualityRecord]:
    """Measured quality records for a set of applications."""
    fields: List[Field] = []
    for app in apps:
        fields.extend(bench_fields(app, snapshots=snapshots, max_fields=max_fields, seed=seed))
    return build_training_records(fields, error_bounds=error_bounds, compressors=(compressor,))


def fit_predictor(records: List[QualityRecord], train_fraction: float = 0.3,
                  seed: int = 0) -> Tuple[QualityPredictor, List[QualityRecord]]:
    """Train a predictor on a fraction of the records; return it and the test set."""
    train, test = train_test_split_records(records, train_fraction=train_fraction, seed=seed)
    predictor = QualityPredictor().fit(train)
    return predictor, test


def best_of(fn: Callable[[], object], repeats: int = 3) -> float:
    """Best-of-``repeats`` wall seconds of ``fn()`` — the suite's only clock.

    The minimum discards one-off table builds and descheduled slices,
    which only ever add time; a same-run ratio of two minima is what the
    (R) gates compare.
    """
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def pearson(x: Sequence[float], y: Sequence[float]) -> float:
    """Pearson correlation coefficient (0 when either side is constant)."""
    a = np.asarray(x, dtype=np.float64)
    b = np.asarray(y, dtype=np.float64)
    if a.size < 2 or a.std() == 0 or b.std() == 0:
        return 0.0
    return float(np.corrcoef(a, b)[0, 1])


def print_table(title: str, rows: List[Dict[str, object]]) -> None:
    """Print rows as an aligned text table (the benchmark's reproduction output)."""
    print(f"\n=== {title} ===")
    if not rows:
        print("(no rows)")
        return
    columns = list(rows[0].keys())
    widths = {c: max(len(str(c)), max(len(_fmt(r.get(c))) for r in rows)) for c in columns}
    header = "  ".join(str(c).ljust(widths[c]) for c in columns)
    print(header)
    print("-" * len(header))
    for row in rows:
        print("  ".join(_fmt(row.get(c)).ljust(widths[c]) for c in columns))


def _fmt(value: object) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.01:
            return f"{value:.3g}"
        return f"{value:.3f}"
    return str(value)
