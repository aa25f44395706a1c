"""Tests for the orchestrator and the Ocelot client facade."""

from __future__ import annotations

import pytest

from repro.core import Ocelot, OcelotConfig, OcelotOrchestrator
from repro.datasets import generate_application
from repro.errors import OrchestrationError
from repro.faas import BatchScheduler, NodeWaitModel, build_faas_service


@pytest.fixture(scope="module")
def tiny_dataset():
    return generate_application("miranda", snapshots=1, scale=0.03, seed=4,
                                fields=["density", "pressure", "velocityx"])


def _config(**kwargs):
    defaults = dict(error_bound=1e-3, compressor="sz3-fast", sentinel_enabled=False)
    defaults.update(kwargs)
    return OcelotConfig(**defaults)


class TestOrchestrator:
    def test_stage_writes_files(self, tiny_dataset):
        orchestrator = OcelotOrchestrator(_config())
        staged = orchestrator.stage(tiny_dataset, "anvil")
        assert len(staged) == tiny_dataset.file_count
        fs = orchestrator.testbed.endpoint("anvil").filesystem
        assert fs.file_count(f"/data/{tiny_dataset.name}") == tiny_dataset.file_count

    def test_stage_applies_size_scale(self, tiny_dataset):
        orchestrator = OcelotOrchestrator(_config(size_scale=100.0))
        staged = orchestrator.stage(tiny_dataset, "anvil")
        assert staged[0].size_bytes == tiny_dataset[0].nbytes * 100

    def test_direct_mode_report(self, tiny_dataset):
        report = Ocelot(_config()).transfer_dataset(tiny_dataset, "anvil", "cori", mode="direct")
        assert report.mode == "direct"
        assert report.compression_ratio == 1.0
        assert report.timings.compression_s == 0.0
        assert report.timings.transfer_s > 0.0
        assert report.transferred_bytes == report.total_bytes

    def test_compressed_mode_moves_fewer_bytes(self, tiny_dataset):
        report = Ocelot(_config()).transfer_dataset(
            tiny_dataset, "anvil", "cori", mode="compressed"
        )
        assert report.mode == "compressed"
        assert report.compression_ratio > 1.0
        assert report.transferred_bytes < report.total_bytes
        assert report.timings.compression_s > 0.0
        assert report.timings.decompression_s > 0.0
        assert report.measured_psnr_db is not None and report.measured_psnr_db > 40.0

    def test_compressed_mode_respects_error_bound(self, tiny_dataset):
        report = Ocelot(_config()).transfer_dataset(
            tiny_dataset, "anvil", "cori", mode="compressed"
        )
        # The worst per-point error across the dataset is bounded by the loosest
        # per-field absolute bound (the relative bound resolved on the field
        # with the largest value range).
        loosest = max(
            1e-3 * float(f.data.max() - f.data.min()) for f in tiny_dataset
        )
        assert report.max_abs_error <= loosest * 1.01

    def test_grouped_mode_reduces_transferred_file_count(self, tiny_dataset):
        report = Ocelot(_config(group_world_size=2)).transfer_dataset(
            tiny_dataset, "anvil", "cori", mode="grouped"
        )
        assert report.mode == "grouped"
        # ceil(3/2) groups + metadata file
        assert report.transferred_files <= 3
        assert any("grouped" in note for note in report.notes)

    def test_grouped_files_land_on_destination(self, tiny_dataset):
        ocelot = Ocelot(_config(group_world_size=4))
        ocelot.transfer_dataset(tiny_dataset, "anvil", "bebop", mode="grouped")
        dest_fs = ocelot.testbed.endpoint("bebop").filesystem
        assert dest_fs.file_count(f"/groups/{tiny_dataset.name}") >= 1
        assert dest_fs.file_count(f"/decompressed/{tiny_dataset.name}") == tiny_dataset.file_count

    def test_invalid_mode_raises(self, tiny_dataset):
        with pytest.raises(OrchestrationError):
            Ocelot(_config()).transfer_dataset(tiny_dataset, "anvil", "cori", mode="hyperspeed")

    def test_sentinel_kicks_in_with_long_node_wait(self, tiny_dataset):
        faas = build_faas_service(
            wait_models={"anvil": NodeWaitModel(kind="constant", scale_s=120.0)}
        )
        ocelot = Ocelot(_config(sentinel_enabled=True, size_scale=5000.0), faas=faas)
        report = ocelot.transfer_dataset(tiny_dataset, "anvil", "bebop", mode="compressed")
        assert report.timings.node_wait_s == pytest.approx(120.0)
        assert report.timings.raw_transfer_s > 0.0
        assert any("sentinel" in note for note in report.notes)

    def test_sentinel_disabled_waits_idle(self, tiny_dataset):
        faas = build_faas_service(
            wait_models={"anvil": NodeWaitModel(kind="constant", scale_s=60.0)}
        )
        ocelot = Ocelot(_config(sentinel_enabled=False), faas=faas)
        report = ocelot.transfer_dataset(tiny_dataset, "anvil", "cori", mode="compressed")
        assert report.timings.node_wait_s == pytest.approx(60.0)
        assert report.timings.raw_transfer_s == 0.0

    @pytest.mark.parametrize(
        "overrides",
        [dict(block_size=16),
         dict(block_size=16, transfer_mode="streamed"),
         dict(block_size=16, mode="grouped", cache_mode="readwrite")],
        ids=["bulk", "streamed", "grouped-cached"],
    )
    def test_a_run_builds_its_compressor_once(self, monkeypatch, tmp_path, tiny_dataset, overrides):
        """Cache probe, compress and stream (per file) share one instance per
        name, decompress another, so the Huffman LUT / rANS table caches
        outlive a file."""
        from repro.core import orchestrator as orchestrator_module

        built, real = [], orchestrator_module.create_blocked_compressor

        def counting(name, **kwargs):
            built.append(name)
            return real(name, **kwargs)

        monkeypatch.setattr(orchestrator_module, "create_blocked_compressor", counting)
        if "cache_mode" in overrides:
            overrides = dict(overrides, cache_dir=str(tmp_path))
        config = _config(mode=overrides.get("mode", "compressed"), **{
            k: v for k, v in overrides.items() if k != "mode"})
        Ocelot(config).transfer_dataset(tiny_dataset, "anvil", "cori")
        # The plan names the registry entry; blobs name the pipeline it builds.
        assert sorted(built) == ["sz3", "sz3-fast"]

    def test_clock_advances_to_total(self, tiny_dataset):
        """Grouping included: a solo job's clock ends at its own Total T."""
        ocelot = Ocelot(_config())
        report = ocelot.transfer_dataset(tiny_dataset, "anvil", "cori", mode="grouped")
        assert report.timings.grouping_s > 0
        assert ocelot.testbed.clock.now == pytest.approx(report.total_s, rel=1e-12)


class TestOcelotFacade:
    def test_transfer_dataset_records_report(self, tiny_dataset):
        ocelot = Ocelot(_config())
        report = ocelot.transfer_dataset(tiny_dataset, "anvil", "cori", mode="compressed")
        assert ocelot.reports() == [report]

    def test_compare_modes_produces_table_row(self, tiny_dataset):
        ocelot = Ocelot(_config())
        comparison = ocelot.compare_modes(tiny_dataset, "anvil", "cori")
        assert set(comparison.reports) == {"direct", "compressed", "grouped"}
        row = comparison.table_row()
        assert row["direction"] == "anvil->cori"
        assert "T(NP)_s" in row and "T(OP)_s" in row and "Reduced_pct" in row

    def test_compressed_transfer_is_faster_than_direct_at_paper_scale(self):
        """The headline claim: with paper-scale volumes and many files, compression wins."""
        dataset = generate_application("cesm", snapshots=2, scale=0.03, seed=6)
        config = _config(
            error_bound=1e-2,
            size_scale=200_000.0,
            assumed_compression_throughput_mbps=300.0,
            assumed_decompression_throughput_mbps=500.0,
            group_world_size=3,
        )
        ocelot = Ocelot(config)
        comparison = ocelot.compare_modes(dataset, "anvil", "bebop",
                                          modes=("direct", "grouped"))
        direct = comparison.reports["direct"]
        grouped = comparison.reports["grouped"]
        assert grouped.total_s < direct.timings.transfer_s
        assert grouped.gain_vs_direct > 0.3

    def test_predict_quality_requires_training(self, tiny_dataset):
        ocelot = Ocelot(_config())
        with pytest.raises(OrchestrationError):
            ocelot.predict_quality(tiny_dataset[0].data)

    def test_train_and_predict_quality(self, tiny_dataset):
        ocelot = Ocelot(_config())
        ocelot.train_predictor(tiny_dataset.fields, error_bounds=(1e-3, 1e-2))
        data = tiny_dataset[0].data
        predictions = ocelot.predict_quality(data, error_bounds=(1e-3, 1e-2))
        assert len(predictions) == 2
        assert all(p.compression_ratio >= 1.0 for p in predictions)
        assert predictions == ocelot.predictor.predict_sweep(
            data, [1e-3, 1e-2], compressors=["sz3-fast"]
        )

    def test_predict_quality_requests_no_compute_nodes(self, monkeypatch, tiny_dataset):
        """A prediction runs next to the data without asking any site's
        batch scheduler for nodes, so it takes no draw from a wait stream."""
        requests = []
        real_queue_wait = BatchScheduler.queue_wait

        def queue_wait(self, nodes):
            requests.append(nodes)
            return real_queue_wait(self, nodes)

        monkeypatch.setattr(BatchScheduler, "queue_wait", queue_wait)
        ocelot = Ocelot(_config())
        ocelot.train_predictor(tiny_dataset.fields, error_bounds=(1e-3, 1e-2))
        ocelot.predict_quality(tiny_dataset[0].data, error_bounds=(1e-3, 1e-2))
        assert requests == []

    def test_a_prediction_leaves_later_node_waits_alone(self, tiny_dataset):
        """bebop samples a bimodal wait per request: a job sourced there
        after a prediction waits exactly as long as it does on its own."""

        def bebop_job(predict_first):
            ocelot = Ocelot(OcelotConfig())
            if predict_first:
                ocelot.train_predictor(tiny_dataset.fields, error_bounds=(1e-3, 1e-2))
                ocelot.predict_quality(tiny_dataset[0].data)
            report = ocelot.transfer_dataset(tiny_dataset, "bebop", "anvil", mode="compressed")
            return report.timings.node_wait_s

        solo = bebop_job(predict_first=False)
        assert solo > 0.0
        assert bebop_job(predict_first=True) == solo

    @pytest.mark.parametrize("source, destination", [("bebop", "anvil"), ("cori", "anvil")])
    def test_a_job_waits_one_draw_from_its_source_site(self, tiny_dataset, source, destination):
        """The wait phase looks the source up in the client's site table
        and takes that site's next draw for the job's node count."""
        sites = build_faas_service(wait_models={
            source: NodeWaitModel(kind="uniform", scale_s=30.0),
        })
        twin = build_faas_service(wait_models={
            source: NodeWaitModel(kind="uniform", scale_s=30.0),
        }).scheduler(source)
        ocelot = Ocelot(OcelotConfig(), faas=sites)
        report = ocelot.transfer_dataset(tiny_dataset, source, destination, mode="compressed")
        expected = twin.queue_wait(min(OcelotConfig().compression_nodes, twin.total_nodes))
        assert report.timings.node_wait_s == expected > 0.0

    def test_recommend_configuration(self, tiny_dataset):
        ocelot = Ocelot(_config())
        ocelot.train_predictor(tiny_dataset.fields, error_bounds=(1e-4, 1e-3, 1e-2))
        choice = ocelot.recommend_configuration(tiny_dataset[0].data, min_psnr_db=0.0)
        assert choice.compression_ratio >= 1.0

    def test_planner_driven_transfer(self, tiny_dataset):
        config = _config(use_prediction=True, candidate_error_bounds=(1e-3, 1e-2), min_psnr_db=50.0)
        ocelot = Ocelot(config)
        ocelot.train_predictor(tiny_dataset.fields, error_bounds=(1e-3, 1e-2))
        report = ocelot.transfer_dataset(tiny_dataset, "anvil", "cori", mode="compressed")
        assert report.predicted_quality is not None
        assert report.error_bound.startswith("rel=")
