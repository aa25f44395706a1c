"""Orchestrator-level blob-cache behaviour: hits, billing, events."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cache import BlobCache
from repro.compression import available_compressors
from repro.core import Ocelot, OcelotConfig
from repro.datasets import Field, ScientificDataset
from repro.errors import ConfigurationError
from repro.service import OcelotService, TransferSpec


def _dataset(name="cachetest", n_fields=3, shape=(48, 40), seed=9):
    x = np.linspace(0, 4 * np.pi, shape[0])
    y = np.linspace(0, 3 * np.pi, shape[1])
    rng = np.random.default_rng(seed)
    fields = []
    for i in range(n_fields):
        data = (
            np.sin((i + 1) * x)[:, None] * np.cos(y)[None, :]
            + rng.normal(0, 0.01, shape)
        ).astype(np.float32)
        fields.append(Field(name=f"f{i}", data=data, application=name))
    return ScientificDataset(name, fields)


def _config(tmp_path, **kwargs):
    defaults = dict(
        error_bound=1e-3,
        compressor="sz3-fast",
        sentinel_enabled=False,
        cache_dir=str(tmp_path / "cache"),
        cache_mode="readwrite",
    )
    defaults.update(kwargs)
    return OcelotConfig(**defaults)


class TestConfigValidation:
    def test_cache_mode_validated(self, tmp_path):
        with pytest.raises(ConfigurationError):
            OcelotConfig(cache_mode="sometimes", cache_dir=str(tmp_path))

    def test_cache_mode_requires_dir(self):
        with pytest.raises(ConfigurationError):
            OcelotConfig(cache_mode="readwrite")

    def test_cache_max_bytes_positive(self, tmp_path):
        with pytest.raises(ConfigurationError):
            OcelotConfig(
                cache_dir=str(tmp_path), cache_mode="read", cache_max_bytes=0
            )


class TestWarmRuns:
    def test_cold_then_warm_full_hit(self, tmp_path):
        dataset = _dataset()
        cold = Ocelot(_config(tmp_path)).transfer_dataset(
            dataset, "anvil", "cori", mode="compressed"
        )
        warm = Ocelot(_config(tmp_path)).transfer_dataset(
            dataset, "anvil", "cori", mode="compressed"
        )
        assert cold.cache_hits == 0 and cold.cache_misses == dataset.file_count
        assert cold.cache_hit_rate == 0.0
        assert warm.cache_hits == dataset.file_count and warm.cache_misses == 0
        assert warm.cache_hit_rate == 1.0
        assert any("blob cache served" in note for note in warm.notes)

    def test_warm_run_reports_the_cold_runs_codec_stack(self, tmp_path):
        """The entropy stage and per-codec block counts are read off every
        blob that crossed, so cached bytes report what fresh ones did."""
        dataset = _dataset()
        config = _config(tmp_path, block_size=16)
        cold = Ocelot(config).transfer_dataset(dataset, "anvil", "cori", mode="compressed")
        warm = Ocelot(config).transfer_dataset(dataset, "anvil", "cori", mode="compressed")
        assert warm.cache_hit_rate == 1.0
        assert cold.entropy_stage == "none" and cold.block_codecs
        assert (warm.entropy_stage, warm.block_codecs) == (cold.entropy_stage, cold.block_codecs)

    def test_cache_off_reports_no_rate(self, tmp_path):
        report = Ocelot(
            _config(tmp_path, cache_dir=None, cache_mode="off")
        ).transfer_dataset(_dataset(), "anvil", "cori", mode="compressed")
        assert report.cache_hits == 0 and report.cache_misses == 0
        assert report.cache_hit_rate is None

    @pytest.mark.parametrize("compressor", available_compressors())
    def test_warm_output_identical_to_cold_across_pipelines(self, tmp_path, compressor):
        dataset = _dataset(n_fields=2, shape=(32, 32))
        cold = Ocelot(_config(tmp_path, compressor=compressor)).transfer_dataset(
            dataset, "anvil", "cori", mode="compressed"
        )
        warm = Ocelot(_config(tmp_path, compressor=compressor)).transfer_dataset(
            dataset, "anvil", "cori", mode="compressed"
        )
        assert warm.cache_hit_rate == 1.0
        # the cached blobs are byte-identical, so the wire volume and the
        # decompressed quality metrics match the cold run exactly
        assert warm.transferred_bytes == cold.transferred_bytes
        assert warm.measured_psnr_db == cold.measured_psnr_db
        assert warm.max_abs_error == cold.max_abs_error

    def test_full_hit_skips_compression_makespan(self, tmp_path):
        dataset = _dataset()
        cold = Ocelot(_config(tmp_path)).transfer_dataset(
            dataset, "anvil", "cori", mode="compressed"
        )
        warm = Ocelot(_config(tmp_path)).transfer_dataset(
            dataset, "anvil", "cori", mode="compressed"
        )
        # warm compression cost is the cached-payload read, not the
        # compute-node pipeline (which includes per-node startup)
        assert warm.timings.compression_s < cold.timings.compression_s
        assert warm.timings.node_wait_s == 0.0

    def test_read_mode_serves_hits_without_growing(self, tmp_path):
        dataset = _dataset()
        Ocelot(_config(tmp_path)).transfer_dataset(
            dataset, "anvil", "cori", mode="compressed"
        )
        store = BlobCache(str(tmp_path / "cache"), mode="read")
        before = store.describe()["total_entries"]
        other = _dataset(name="other", seed=77)
        report = Ocelot(_config(tmp_path, cache_mode="read")).transfer_dataset(
            other, "anvil", "cori", mode="compressed"
        )
        assert report.cache_hits == 0
        assert store.describe()["total_entries"] == before  # nothing new was written

    def test_streamed_full_hit_falls_back_to_bulk(self, tmp_path):
        dataset = _dataset()
        Ocelot(_config(tmp_path, block_size=16)).transfer_dataset(
            dataset, "anvil", "cori", mode="compressed"
        )
        warm = Ocelot(
            _config(tmp_path, block_size=16, transfer_mode="streamed")
        ).transfer_dataset(dataset, "anvil", "cori", mode="compressed")
        assert warm.cache_hit_rate == 1.0
        assert warm.timings.streaming_s == 0.0
        assert any("shipped cached blobs in bulk" in note for note in warm.notes)

    def test_streamed_run_counts_the_files_it_probed(self, tmp_path):
        """A streamed run reads the blob tier without writing it, and every
        file it probed and was not served is a miss — as on a bulk run."""
        dataset = _dataset()
        streamed = _config(tmp_path, block_size=16, transfer_mode="streamed")
        first = Ocelot(streamed).transfer_dataset(dataset, "anvil", "cori", mode="compressed")
        again = Ocelot(streamed).transfer_dataset(dataset, "anvil", "cori", mode="compressed")
        bulk = Ocelot(_config(tmp_path, block_size=16)).transfer_dataset(
            dataset, "anvil", "cori", mode="compressed"
        )
        for report in (first, again, bulk):  # the streamed runs stored nothing
            assert (report.cache_hits, report.cache_misses) == (0, dataset.file_count)
            assert report.cache_hit_rate == 0.0
        assert first.transfer_mode == again.transfer_mode == "streamed"


class TestKeySeparation:
    @pytest.mark.parametrize(
        "override",
        [
            {"error_bound": 1e-2},
            {"block_size": 16},
            {"shared_codebook": False},
            {"compressor": "sz3"},
            # sz3-fast's registry default is entropy_stage="none"; forcing
            # huffman changes the bytes, so it must also change the key.
            {"entropy_stage": "huffman"},
        ],
    )
    def test_differing_pipelines_never_share_entries(self, tmp_path, override):
        dataset = _dataset()
        Ocelot(_config(tmp_path, block_size=8)).transfer_dataset(
            dataset, "anvil", "cori", mode="compressed"
        )
        changed_kwargs = {"block_size": 8, **override}
        changed = Ocelot(_config(tmp_path, **changed_kwargs)).transfer_dataset(
            dataset, "anvil", "cori", mode="compressed"
        )
        assert changed.cache_hits == 0
        assert changed.cache_misses == dataset.file_count

    def test_fingerprint_tracks_effective_entropy_and_lossless(self, tmp_path):
        """Regression: the cache fingerprint once ignored the entropy
        stage and lossless backend, so ``sz3`` with ``huffman`` and
        ``none`` outputs (different bytes) shared cache entries.  The
        stage must be the *effective* one — a ``None`` override keeps the
        registry default, e.g. ``none`` for sz3-fast."""
        def fingerprint(**overrides):
            config = _config(tmp_path, **overrides)
            orchestrator = Ocelot(config)._orchestrator_for(config)
            return orchestrator._build_compressor("sz3-fast").cache_fingerprint(1e-3)

        default = fingerprint()
        assert (default["entropy"], default["lossless"]) == ("none", "deflate")
        fingerprints = [
            default, fingerprint(entropy_stage="rans"), fingerprint(entropy_stage="huffman")
        ]
        assert len({str(fp) for fp in fingerprints}) == 3

    #: ``(OcelotConfig overrides, whole-blob fingerprint, blob key)``
    #: for the content digest ``"ab" * 16`` at an absolute bound of 1e-3.
    #: A key that moves here turns every warm cache cold.  They moved
    #: twice on purpose: when the learned block policy went (the
    #: ``block_policy`` field left the fingerprint, ``block_format`` 4) and
    #: when the per-block codec rule went (block keys only,
    #: ``block_format`` 5: older builds stored rANS payloads under a
    #: Huffman fingerprint) — a cache warmed by an older build must miss
    #: rather than serve bytes this build would not write.  The keys of
    #: entropy-coded pipelines moved a third time with the split section
    #: layout (``section_layout`` in the whole-blob fingerprint,
    #: ``block_format`` 6); ``sz3-fast``, whose bytes did not move, kept its.
    #: The rANS keys moved a fourth time when rANS took its lanes from the
    #: file's plan and stored its tables as gaps (``rans_lanes``: ``"plan"``
    #: for a whole blob, the plan's lane limit for a block, 4096 here, a
    #: one-block plan's); the Huffman and ``sz3-fast`` keys kept theirs.
    #: Every key moved a fifth time with container version 3 (``format``
    #: in the whole-blob fingerprint, ``block_format`` 7 for every block).
    #: The block tier, and with it the block keys, went later; the blob
    #: keys did not move.
    PINNED_KEYS = [
        (
            dict(compressor="sz3", block_size=32),
            {"adaptive_predictor": False, "block_shape": 32,
             "codebook_mode": "shared", "compressor": "sz3", "entropy": "huffman",
             "error_bound_abs": "0x1.0624dd2f1a9fcp-10", "lossless": "deflate",
             "section_layout": "split", "format": 3},
            "8f4760f981d1dbc89a1f998e2f35ab6a",
        ),
        (
            dict(compressor="sz3-fast"),
            {"adaptive_predictor": False, "block_shape": None,
             "codebook_mode": "shared", "compressor": "sz3-fast", "entropy": "none",
             "error_bound_abs": "0x1.0624dd2f1a9fcp-10", "lossless": "deflate", "format": 3},
            "325caa9bc783896fdfa977e45d061c70",
        ),
        (
            dict(compressor="sz3", block_size=32, entropy_stage="rans",
                 adaptive_predictor=True, shared_codebook=False),
            {"adaptive_predictor": True, "block_shape": 32,
             "codebook_mode": "per-block", "compressor": "sz3", "entropy": "rans",
             "error_bound_abs": "0x1.0624dd2f1a9fcp-10", "lossless": "deflate",
             "rans_lanes": "plan", "section_layout": "split", "format": 3},
            "0a66f3620202e55dca8e7fbbd749785e",
        ),
    ]

    @pytest.mark.parametrize(
        "overrides, fingerprint, blob_key",
        PINNED_KEYS,
        ids=["sz3-shared-huffman-32", "sz3-fast", "sz3-rans-adaptive-per-block"],
    )
    def test_cache_keys_are_pinned(self, overrides, fingerprint, blob_key):
        from repro.cache import blob_cache_key

        config = OcelotConfig(**overrides)
        orchestrator = Ocelot(config)._orchestrator_for(config)
        compressor = orchestrator._build_compressor(overrides["compressor"])
        assert compressor.cache_fingerprint(1e-3) == fingerprint
        assert blob_cache_key("ab" * 16, fingerprint) == blob_key

    @pytest.mark.parametrize("stage", ["huffman", "rans"])
    def test_a_cache_filled_by_the_whole_section_layout_misses(
        self, tmp_path, monkeypatch, stage
    ):
        """Older builds wrote every section whole, under a whole-blob
        fingerprint without ``section_layout``.  Such a cache must miss:
        serving it would ship bytes a fresh encode no longer writes."""
        from repro.compression.sz import encoding
        from repro.compression.sz.pipeline import PredictionPipelineCompressor
        from repro.datasets import generate_application

        dataset = generate_application("miranda", snapshots=1, scale=0.12, seed=3)
        dataset = ScientificDataset("layout", dataset.fields[:1])
        config = _config(tmp_path, compressor="sz3", block_size=32, entropy_stage=stage)

        def run():
            report = Ocelot(config).transfer_dataset(dataset, "anvil", "cori", mode="compressed")
            return report, report.transferred_bytes

        real = PredictionPipelineCompressor.cache_fingerprint
        with monkeypatch.context() as older:
            older.setattr(encoding, "SPLIT_MIN_BYTES", 1 << 40)
            older.setattr(PredictionPipelineCompressor, "cache_fingerprint", lambda self, *a, **k: {
                key: value for key, value in real(self, *a, **k).items() if key != "section_layout"
            })
            filled, whole_bytes = run()
        assert filled.cache_misses == 1
        fresh, split_bytes = run()
        assert (fresh.cache_hits, fresh.cache_misses) == (0, 1)
        assert split_bytes < whole_bytes
        warm, warm_bytes = run()
        assert (warm.cache_hits, warm_bytes) == (1, split_bytes)

    def test_differing_data_never_shares_entries(self, tmp_path):
        Ocelot(_config(tmp_path)).transfer_dataset(
            _dataset(seed=1), "anvil", "cori", mode="compressed"
        )
        other = Ocelot(_config(tmp_path)).transfer_dataset(
            _dataset(seed=2), "anvil", "cori", mode="compressed"
        )
        assert other.cache_hits == 0


class TestEvictionMidJob:
    def test_capped_cache_stays_under_cap_and_run_completes(self, tmp_path):
        dataset = _dataset(n_fields=5)
        config = _config(tmp_path, cache_max_bytes=4096)
        report = Ocelot(config).transfer_dataset(
            dataset, "anvil", "cori", mode="compressed"
        )
        assert report.cache_misses == dataset.file_count
        store = BlobCache(str(tmp_path / "cache"), mode="read")
        assert store.disk_usage() <= 4096
        # a partially evicted cache still serves what survived and
        # recompresses the rest — the run must stay correct either way
        warm = Ocelot(config).transfer_dataset(
            dataset, "anvil", "cori", mode="compressed"
        )
        assert warm.cache_hits + warm.cache_misses == dataset.file_count
        assert warm.measured_psnr_db == report.measured_psnr_db


class TestCompareModesBilling:
    def test_warm_transfer_billed_like_cold(self, tmp_path):
        dataset = _dataset()
        config = _config(tmp_path)
        cold = Ocelot(config).compare_modes(
            dataset, "anvil", "cori", modes=("direct", "compressed")
        )
        warm = Ocelot(config).compare_modes(
            dataset, "anvil", "cori", modes=("direct", "compressed")
        )
        cold_cp = cold.reports["compressed"]
        warm_cp = warm.reports["compressed"]
        assert warm_cp.cache_hit_rate == 1.0
        # cached blobs still cross the WAN on the same clock rules
        assert warm_cp.timings.transfer_s == pytest.approx(
            cold_cp.timings.transfer_s, rel=1e-12
        )
        assert warm_cp.transferred_bytes == cold_cp.transferred_bytes
        assert warm_cp.timings.compression_s < cold_cp.timings.compression_s
        assert warm_cp.total_s < cold_cp.total_s
        # the direct mode is cache-free and identical in both rounds
        assert warm.reports["direct"].timings.transfer_s == pytest.approx(
            cold.reports["direct"].timings.transfer_s, rel=1e-12
        )


class TestJobEvents:
    def _run_job(self, tmp_path, dataset):
        config = _config(tmp_path, compression_nodes=2, decompression_nodes=2)
        service = OcelotService(config)
        handle = service.submit(
            TransferSpec(
                dataset=dataset, source="anvil", destination="cori", mode="compressed"
            )
        )
        service.run_pending()
        return handle.as_dict()

    def test_events_carry_cache_outcomes(self, tmp_path):
        dataset = _dataset()
        cold = self._run_job(tmp_path, dataset)
        warm = self._run_job(tmp_path, dataset)

        def file_events(record):
            return [
                e for e in record["events"] if e["kind"] == "file_compressed"
            ]

        assert all(e["detail"]["cache"] == "miss" for e in file_events(cold))
        assert all(e["detail"]["cache"] == "hit" for e in file_events(warm))
        completed = next(
            e for e in warm["events"] if e["kind"] == "completed"
        )
        assert completed["detail"]["cache_hit_rate"] == 1.0
        cold_completed = next(
            e for e in cold["events"] if e["kind"] == "completed"
        )
        assert cold_completed["detail"]["cache_hit_rate"] == 0.0
