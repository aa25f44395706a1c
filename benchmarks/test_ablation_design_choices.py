"""Ablations of the design choices called out in DESIGN.md.

* Lorenzo variant: decoupled (vectorised) Lorenzo vs interpolation vs
  regression pipelines — ratio/time trade-off.
* File grouping strategy: per-file vs world-size groups vs one huge blob.
* Sentinel: on vs off under increasing node-wait times.
* Feature ablation: drop compressor-based or data-based features from the
  quality model and measure the accuracy loss.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.compression import ErrorBound, create_compressor
from repro.core import FileGrouper, Ocelot, OcelotConfig
from repro.datasets import generate_application, generate_field
from repro.faas import NodeWaitModel, build_faas_service
from repro.features.vector import FEATURE_NAMES
from repro.ml import DecisionTreeRegressor, root_mean_squared_error
from repro.prediction import train_test_split_records, records_to_matrix
from repro.transfer import GridFTPEngine, build_testbed

from common import print_table


# --------------------------------------------------------------------------- #
# Ablation 1: compressor pipelines (Lorenzo vs regression vs interpolation)
# --------------------------------------------------------------------------- #
def _pipeline_ablation():
    field = generate_field("miranda", "density", scale=0.08, seed=5)
    rows = []
    for name in ("sz-lorenzo", "sz2", "sz3-linear", "sz3", "zfp-like"):
        compressor = create_compressor(name)
        result = compressor.compress(field.data, ErrorBound.relative(1e-3), collect_quality=True)
        rows.append(
            {
                "pipeline": name,
                "compression_ratio": result.compression_ratio,
                "psnr_db": result.stats.psnr_db,
                "max_abs_error": result.stats.max_abs_error,
                "time_s": result.stats.compression_time_s,
            }
        )
    return rows


@pytest.mark.benchmark(group="ablation")
def test_ablation_compression_pipelines(benchmark):
    rows = benchmark.pedantic(_pipeline_ablation, rounds=1, iterations=1)
    print_table("Ablation: compression pipelines on Miranda density (rel 1e-3)", rows)
    by_name = {r["pipeline"]: r for r in rows}
    eb_abs = 1e-3 * 1.6  # density range ~1.6
    for row in rows:
        assert row["max_abs_error"] <= eb_abs * 1.05
    # The interpolation pipeline (SZ3) achieves the best ratio on smooth 3-D
    # fields, which is why the paper adopts it.
    assert by_name["sz3"]["compression_ratio"] >= by_name["sz-lorenzo"]["compression_ratio"] * 0.9
    assert by_name["sz3"]["compression_ratio"] >= by_name["zfp-like"]["compression_ratio"]


# --------------------------------------------------------------------------- #
# Ablation 2: grouping strategy
# --------------------------------------------------------------------------- #
def _grouping_ablation():
    rng = np.random.default_rng(0)
    # 600 compressed files of ~6 MB, transferred over the Bebop->Cori link.
    files = [(f"f{i:04d}", int(6e6)) for i in range(600)]
    testbed = build_testbed()
    link = testbed.service.topology.link("bebop", "cori")
    # Single-stream channels: one TCP stream cannot saturate the link, which
    # is why a single giant blob is not the right grouping either.
    from repro.transfer import GridFTPSettings

    engine = GridFTPEngine(GridFTPSettings(concurrency=8, parallelism=1, pipelining=20))
    grouper = FileGrouper()
    strategies = {
        "per-file (no grouping)": [[name] for name, _ in files],
        # 600 / 75 = 8 groups, exactly matching the transfer concurrency —
        # the "strategic grouping" the paper recommends.
        "world-size groups (75)": grouper.assign_by_world_size(files, 75),
        "single blob": [[name for name, _ in files]],
    }
    size_by_name = dict(files)
    rows = []
    for label, assignment in strategies.items():
        group_sizes = [sum(size_by_name[n] for n in group) for group in assignment]
        estimate = engine.estimate(group_sizes, link)
        rows.append(
            {
                "strategy": label,
                "files_on_wire": len(group_sizes),
                "duration_s": estimate.duration_s,
                "speed_MBps": estimate.effective_speed_mbps,
            }
        )
    return rows


@pytest.mark.benchmark(group="ablation")
def test_ablation_grouping_strategy(benchmark):
    rows = benchmark.pedantic(_grouping_ablation, rounds=1, iterations=1)
    print_table("Ablation: grouping strategy for 600 x 6 MB compressed files", rows)
    by_label = {r["strategy"]: r for r in rows}
    # Grouping beats per-file transfer; a single giant blob loses the benefit
    # of concurrent channels (the paper's recommendation: multiple groups).
    assert by_label["world-size groups (75)"]["duration_s"] < by_label["per-file (no grouping)"]["duration_s"]
    assert by_label["world-size groups (75)"]["duration_s"] < by_label["single blob"]["duration_s"]


# --------------------------------------------------------------------------- #
# Ablation 3: sentinel on/off under node waiting
# --------------------------------------------------------------------------- #
def _sentinel_ablation():
    dataset = generate_application("miranda", snapshots=2, scale=0.03, seed=13)
    rows = []
    for wait_s in (0.0, 120.0, 600.0):
        for sentinel in (False, True):
            faas = build_faas_service(
                wait_models={"anvil": NodeWaitModel(kind="constant", scale_s=wait_s)}
            )
            testbed = build_testbed()
            config = OcelotConfig(
                error_bound=1e-2,
                compressor="sz3-fast",
                size_scale=150_000.0,
                assumed_compression_throughput_mbps=300.0,
                assumed_decompression_throughput_mbps=500.0,
                sentinel_enabled=sentinel,
                group_world_size=4,
            )
            ocelot = Ocelot(config, testbed=testbed, faas=faas)
            report = ocelot.transfer_dataset(dataset, "anvil", "bebop", mode="grouped")
            rows.append(
                {
                    "node_wait_s": wait_s,
                    "sentinel": sentinel,
                    "raw_files": sum(1 for n in report.notes if "sentinel" in n),
                    "total_s": report.total_s,
                    "direct_s": report.direct_transfer_s,
                }
            )
    return rows


@pytest.mark.benchmark(group="ablation")
def test_ablation_sentinel(benchmark):
    rows = benchmark.pedantic(_sentinel_ablation, rounds=1, iterations=1)
    print_table("Ablation: sentinel on/off under node-waiting", rows)
    def total(wait, sentinel):
        return next(r["total_s"] for r in rows if r["node_wait_s"] == wait and r["sentinel"] is sentinel)
    # Without waiting the sentinel changes nothing.
    assert total(0.0, True) == pytest.approx(total(0.0, False), rel=0.2)
    # With long waits the sentinel keeps total time at or below the idle-wait variant.
    assert total(600.0, True) <= total(600.0, False) * 1.01


# --------------------------------------------------------------------------- #
# Ablation 4: feature groups for the quality model
# --------------------------------------------------------------------------- #
def _feature_ablation(mixed_records):
    train, test = train_test_split_records(mixed_records, train_fraction=0.4, seed=5)
    X_train, y_train = records_to_matrix(train, "ratio")
    X_test, y_test = records_to_matrix(test, "ratio")
    compressor_features = ["p0", "P0", "quantization_entropy", "run_length_estimator"]
    data_features = ["minimum", "maximum", "value_range", "byte_entropy", "mean_lorenzo_error"]
    variants = {
        "all 11 features": list(range(len(FEATURE_NAMES))),
        "without compressor-based": [
            i for i, n in enumerate(FEATURE_NAMES) if n not in compressor_features
        ],
        "without data-based": [
            i for i, n in enumerate(FEATURE_NAMES) if n not in data_features
        ],
        "config-only": [0, 1],
    }
    rows = []
    for label, indices in variants.items():
        model = DecisionTreeRegressor(max_depth=12).fit(X_train[:, indices], y_train)
        rmse = root_mean_squared_error(y_test, model.predict(X_test[:, indices]))
        rows.append({"feature_set": label, "n_features": len(indices), "ratio_rmse": rmse})
    return rows


@pytest.mark.benchmark(group="ablation")
def test_ablation_feature_groups(benchmark, mixed_records):
    rows = benchmark.pedantic(_feature_ablation, args=(mixed_records,), rounds=1, iterations=1)
    print_table("Ablation: quality-model feature groups (ratio RMSE)", rows)
    by_label = {r["feature_set"]: r["ratio_rmse"] for r in rows}
    # The full feature set is at least as good as the config-only model, and
    # dropping the compressor-based features hurts (they carry most signal).
    assert by_label["all 11 features"] <= by_label["config-only"] * 1.05
    assert by_label["all 11 features"] <= by_label["without compressor-based"] * 1.10
