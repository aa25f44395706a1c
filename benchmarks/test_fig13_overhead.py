"""Fig. 13 — (A) prediction overhead vs sampling rate; (B) per-application
compression-time ranges.

Sampling ~1 % of the data keeps the feature-extraction overhead to a few
percent of the compression time (the paper reports 1.7 %); compression
times cluster tightly within an application because all its files share
dimensions.

(R) same-run ratios: both sides of each comparison are wall times taken
in this test through ``common.best_of`` (the calls last 0.5-4 ms, so a
single reading is mostly scheduler noise).  Measured over 16 runs, 6 of
them with ``bench/run.py`` looping beside the test: overhead at 1 %
sampling 1.7-3.5 % (median 2.6 %) against the 30 % ceiling, extraction
at 100 % / at 1 % 6.6-14.6x (median 9.8x) against > 1x, per-application
spread 1.25-1.75 (median 1.5) against < 8 — 11x, 9.8x and 5.3x headroom.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.compression import ErrorBound, create_compressor
from repro.features import FeatureExtractor
from repro.datasets import generate_field

from common import SWEEP_COMPRESSOR, bench_fields, best_of, print_table

#: Timed repeats per side; the calls are milliseconds long.
REPEATS = 5


def _overhead_sweep():
    field = generate_field("nyx", "baryon_density", scale=0.08, seed=2)
    compressor = create_compressor("sz3-fast")
    bound = ErrorBound.relative(1e-3)
    eb_abs = 1e-3 * float(np.ptp(field.data))
    compression_time = best_of(lambda: compressor.compress(field.data, bound), REPEATS)
    rows = []
    for fraction in (1.0, 0.1, 0.01):
        extractor = FeatureExtractor(sample_fraction=fraction)
        sample_points = extractor.extract(field.data, eb_abs).sample_size
        extraction_time = best_of(lambda: extractor.extract(field.data, eb_abs), REPEATS)
        rows.append(
            {
                "sampling": f"{fraction:g}",
                "extraction_time_s": extraction_time,
                "compression_time_s": compression_time,
                "overhead_pct": 100.0 * extraction_time / compression_time,
                "sample_points": sample_points,
            }
        )
    return rows


def _per_app_ranges():
    rows = []
    compressor = create_compressor(SWEEP_COMPRESSOR)
    bound = ErrorBound.relative(1e-3)
    for app in ("cesm", "miranda", "nyx"):
        times = [
            best_of(lambda: compressor.compress(field.data, bound), REPEATS)
            for field in bench_fields(app, snapshots=1, max_fields=5)
        ]
        rows.append(
            {
                "application": app,
                "min_time_s": min(times),
                "max_time_s": max(times),
                "mean_time_s": float(np.mean(times)),
                "spread": max(times) / max(min(times), 1e-9),
            }
        )
    return rows


@pytest.mark.benchmark(group="fig13")
def test_fig13a_prediction_overhead(benchmark):
    rows = benchmark.pedantic(_overhead_sweep, rounds=1, iterations=1)
    print_table("Fig. 13 (A): feature-extraction overhead vs sampling rate", rows)
    by_fraction = {row["sampling"]: row for row in rows}
    # Subsampling reduces the overhead dramatically; at 1% sampling the
    # overhead is a small fraction of the compression time.
    assert by_fraction["0.01"]["extraction_time_s"] < by_fraction["1"]["extraction_time_s"]
    assert by_fraction["0.01"]["overhead_pct"] < 30.0


@pytest.mark.benchmark(group="fig13")
def test_fig13b_compression_time_ranges_per_application(benchmark):
    rows = benchmark.pedantic(_per_app_ranges, rounds=1, iterations=1)
    print_table("Fig. 13 (B): compression time ranges per application", rows)
    # Files of the same application (same dimensions) have similar times.
    for row in rows:
        assert row["spread"] < 8.0
