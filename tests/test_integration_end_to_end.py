"""End-to-end integration tests across all subsystems.

These walk the full paper workflow on small synthetic data: train the
quality predictor, use it to plan, run compressed transfers across the
simulated testbed, and check the headline qualitative claims (compression
wins at paper-like scale, grouping helps many-small-file datasets, the
sentinel bounds the worst case, data quality stays above the usability
threshold).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import Ocelot, OcelotConfig
from repro.datasets import generate_application
from repro.faas import NodeWaitModel, build_faas_service
from repro.ml import root_mean_squared_error
from repro.prediction import build_training_records, train_test_split_records, QualityPredictor
from repro.transfer import build_testbed


@pytest.fixture(scope="module")
def rtm_like_dataset():
    """A many-file dataset (one field per snapshot, like RTM)."""
    return generate_application("rtm", snapshots=24, scale=0.04, seed=5)


@pytest.fixture(scope="module")
def paper_scale_config():
    """Configuration that emulates paper-scale volumes on the simulated WAN."""
    return OcelotConfig(
        error_bound=1e-3,
        compressor="sz3-fast",
        size_scale=150_000.0,  # tiny arrays stand in for multi-hundred-MB files
        # Cluster-scale timing assumes a native SZ-like compressor running at
        # a few hundred MB/s per core (the pure-Python implementation is used
        # for correctness, not for absolute speed).
        assumed_compression_throughput_mbps=300.0,
        assumed_decompression_throughput_mbps=500.0,
        sentinel_enabled=False,
        group_world_size=8,
    )


class TestEndToEndWorkflow:
    def test_full_predict_then_transfer_workflow(self, rtm_like_dataset):
        """Capability 1 + 2 + 3 in sequence, as a user would run them."""
        ocelot = Ocelot(OcelotConfig(error_bound=1e-3, compressor="sz3-fast",
                                     use_prediction=True,
                                     candidate_error_bounds=(1e-4, 1e-3, 1e-2),
                                     min_psnr_db=50.0, sentinel_enabled=False))
        ocelot.train_predictor(rtm_like_dataset.fields[:6], error_bounds=(1e-4, 1e-3, 1e-2))
        recommendation = ocelot.recommend_configuration(rtm_like_dataset[0].data)
        assert recommendation.compression_ratio >= 1.0
        report = ocelot.transfer_dataset(rtm_like_dataset, "anvil", "cori", mode="grouped")
        assert report.compression_ratio > 1.0
        assert report.measured_psnr_db > 50.0
        assert report.predicted_quality is not None

    def test_paper_scale_comparison_shape(self, rtm_like_dataset, paper_scale_config):
        """Table VIII shape: OP/CP beat NP substantially at paper-like scale."""
        ocelot = Ocelot(paper_scale_config)
        comparison = ocelot.compare_modes(rtm_like_dataset, "anvil", "bebop")
        direct = comparison.reports["direct"]
        compressed = comparison.reports["compressed"]
        grouped = comparison.reports["grouped"]
        # Compressed transfers move far fewer bytes and finish sooner end to end.
        assert compressed.transferred_bytes < 0.6 * direct.transferred_bytes
        assert grouped.total_s < direct.timings.transfer_s
        assert grouped.gain_vs_direct > 0.3
        # Grouping reduces the number of files on the wire.
        assert grouped.transferred_files < compressed.transferred_files

    def test_grouping_helps_many_small_compressed_files(self):
        """T(OP) <= T(CP) when the compressed files are small and numerous.

        Grouping only pays off when (a) compressed files are small enough
        that per-file handling overhead matters and (b) there are enough
        groups to keep all concurrent channels busy (the paper's Miranda
        row shows what happens otherwise).
        """
        dataset = generate_application("rtm", snapshots=96, scale=0.04, seed=7)
        config = OcelotConfig(
            error_bound=1e-3,
            compressor="sz3-fast",
            size_scale=17_000.0,  # ~200 MB raw per file, ~tens of MB compressed
            assumed_compression_throughput_mbps=300.0,
            assumed_decompression_throughput_mbps=500.0,
            sentinel_enabled=False,
            group_world_size=12,  # 96 files -> 8 groups, matching the concurrency
        )
        ocelot = Ocelot(config)
        comparison = ocelot.compare_modes(
            dataset, "bebop", "cori", modes=("compressed", "grouped")
        )
        compressed = comparison.reports["compressed"]
        grouped = comparison.reports["grouped"]
        assert grouped.transferred_files < compressed.transferred_files
        assert grouped.timings.transfer_s <= compressed.timings.transfer_s * 1.02

    def test_sentinel_bounds_worst_case(self, rtm_like_dataset):
        """With an extreme node wait, Ocelot degenerates to ~direct transfer, not worse."""
        wait = 1e7  # nodes effectively never arrive within the transfer window
        faas = build_faas_service(
            wait_models={"anvil": NodeWaitModel(kind="constant", scale_s=wait)}
        )
        testbed = build_testbed()
        config = OcelotConfig(error_bound=1e-3, compressor="sz3-fast",
                              sentinel_enabled=True, size_scale=150_000.0,
                              assumed_compression_throughput_mbps=300.0,
                              assumed_decompression_throughput_mbps=500.0)
        ocelot = Ocelot(config, testbed=testbed, faas=faas)
        report = ocelot.transfer_dataset(rtm_like_dataset, "anvil", "bebop", mode="compressed")
        # Everything went raw during the wait; nothing left to compress.
        assert report.timings.compression_s < 5.0
        assert report.timings.raw_transfer_s > 0.0
        assert report.compression_ratio == 1.0 or report.transferred_bytes >= report.total_bytes * 0.9

    def test_quality_predictor_accuracy_on_held_out_files(self):
        """Fig. 12-style check across applications: predictions track reality."""
        fields = []
        for app in ("cesm", "miranda"):
            fields.extend(generate_application(app, snapshots=1, scale=0.04, seed=9).fields[:5])
        records = build_training_records(fields, error_bounds=(1e-4, 1e-3, 1e-2),
                                         compressors=("sz3-fast",))
        train, test = train_test_split_records(records, train_fraction=0.5, seed=3)
        predictor = QualityPredictor().fit(train)
        true_ratio = [r.compression_ratio for r in test]
        pred_ratio = [
            predictor.predict_from_features(r.features, r.error_bound_abs, r.compressor).compression_ratio
            for r in test
        ]
        assert root_mean_squared_error(true_ratio, pred_ratio) < np.mean(true_ratio)

    def test_different_routes_have_different_speeds(self, rtm_like_dataset, paper_scale_config):
        """Anvil->Cori is much faster than Anvil->Bebop (Table VIII routes)."""
        ocelot = Ocelot(paper_scale_config)
        fast = ocelot.transfer_dataset(rtm_like_dataset, "anvil", "cori", mode="direct")
        ocelot.testbed.reset_clock()
        slow = ocelot.transfer_dataset(rtm_like_dataset, "anvil", "bebop", mode="direct")
        assert fast.wire_speed_bps > 2.5 * slow.wire_speed_bps
