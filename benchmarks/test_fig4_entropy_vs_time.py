"""Fig. 4 — byte entropy vs compression cost for RTM at three error bounds.

The paper observes that higher-entropy RTM snapshots are harder to
compress (longer compression time) at small error bounds, and that the
relationship fades at large bounds because the bound flattens the data
variation.  In this reproduction the *difficulty* relationship is
measured both as compression time and as achieved compression ratio; the
ratio correlation is the robust signal (the pure-Python pipeline's
wall-clock time is dominated by per-symbol costs and therefore much less
data-dependent than the C SZ implementation — see EXPERIMENTS.md).

The ratio correlations are (D) deterministic and carry the assertions;
the time correlations are (R) same-run readings through
``common.best_of``, printed and not gated.
"""

from __future__ import annotations

import pytest

from repro.compression import ErrorBound, create_compressor
from repro.datasets import generate_field
from repro.features import extract_data_features

from common import best_of, pearson, print_table

ERROR_BOUNDS = (1e-5, 1e-3, 1e-1)
N_SNAPSHOTS = 14


def _measure():
    compressor = create_compressor("sz3")
    snapshots = [
        generate_field("rtm", "snapshot", snapshot=i, scale=0.08, seed=3)
        for i in range(N_SNAPSHOTS)
    ]
    rows = []
    time_corr = {}
    ratio_corr = {}
    for eb in ERROR_BOUNDS:
        entropies, times, ratios = [], [], []
        for field in snapshots:
            entropy = extract_data_features(field.data).byte_entropy
            result = compressor.compress(field.data, ErrorBound.relative(eb))
            elapsed = best_of(lambda: compressor.compress(field.data, ErrorBound.relative(eb)), 2)
            entropies.append(entropy)
            times.append(elapsed)
            ratios.append(result.compression_ratio)
            rows.append(
                {
                    "error_bound": eb,
                    "snapshot": field.snapshot,
                    "byte_entropy": entropy,
                    "compression_time_s": elapsed,
                    "compression_ratio": result.compression_ratio,
                }
            )
        time_corr[eb] = pearson(entropies, times)
        ratio_corr[eb] = pearson(entropies, ratios)
    return rows, time_corr, ratio_corr


@pytest.mark.benchmark(group="fig4")
def test_fig4_entropy_vs_compression_cost(benchmark):
    rows, time_corr, ratio_corr = benchmark.pedantic(_measure, rounds=1, iterations=1)
    print_table("Fig. 4: entropy vs compression time/ratio (RTM)", rows)
    print_table(
        "Fig. 4: entropy correlations per error bound",
        [
            {"error_bound": eb, "pearson_entropy_vs_time": time_corr[eb],
             "pearson_entropy_vs_ratio": ratio_corr[eb]}
            for eb in ERROR_BOUNDS
        ],
    )
    entropies = sorted({row["byte_entropy"] for row in rows})
    # The RTM snapshots genuinely span a wide entropy range (early snapshots
    # are quiescent), which is what makes entropy a useful feature.
    assert entropies[-1] - entropies[0] > 1.0
    # Higher entropy ⇒ harder to compress (lower ratio) at small bounds ...
    assert ratio_corr[1e-5] < -0.5
    # ... while a large error bound washes the relationship out (the paper's
    # "entropy loses its effect" observation).
    assert abs(ratio_corr[1e-1]) <= abs(ratio_corr[1e-5]) + 0.2
