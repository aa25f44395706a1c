"""Within-blob block aliasing and the cross-job block store."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cache import BlobCache
from repro.compression import CompressedBlob, available_compressors
from repro.compression.registry import create_blocked_compressor
from repro.compression.sz import pipeline as sz_pipeline
from repro.core import ParallelExecutor
from repro.errors import EncodingError


def _tiled(reps=(4, 4)):
    """An array whose 8x8 blocks are all copies of one tile."""
    tile = np.linspace(0.0, 1.0, 64).reshape(8, 8)
    return np.tile(tile, reps), tile


def _mixed():
    """Mostly tiled, with one block of unique noise."""
    arr, _ = _tiled()
    arr = arr.copy()
    arr[8:16, 0:8] = np.random.default_rng(11).normal(size=(8, 8))
    return arr


PIPELINES = ["sz3", "sz3-fast", "sz-lorenzo"]


class TestWithinBlobAliasing:
    @pytest.mark.parametrize("name", PIPELINES)
    def test_duplicate_blocks_become_aliases(self, name):
        arr, _ = _tiled()
        comp = create_blocked_compressor(name, block_shape=(8, 8))
        blob = comp.compress_array(arr, 1e-6)
        assert blob.num_blocks == 16
        assert blob.aliased_block_count == 15
        assert comp.last_dedup_stats == {
            "total_blocks": 16,
            "distinct_blocks": 1,
            "aliased_blocks": 15,
        }
        # only the representative's section is stored
        block_sections = [
            s for s in blob.container.section_names() if s.startswith("block:")
        ]
        assert block_sections == ["block:0"]

    @pytest.mark.parametrize("name", PIPELINES)
    def test_aliased_blob_roundtrips_within_bound(self, name):
        arr, _ = _tiled()
        comp = create_blocked_compressor(name, block_shape=(8, 8))
        blob = comp.compress_array(arr, 1e-6)
        recon = comp.decompress_blob(blob)
        assert np.abs(recon - arr).max() <= 1e-6 * (1 + 1e-9)

    def test_alias_smaller_than_no_dedup_encoding(self):
        arr, _ = _tiled()
        comp = create_blocked_compressor("sz3-fast", block_shape=(8, 8))
        deduped = comp.compress_array(arr, 1e-6)
        # a unique-content array of the same size stores every section
        rng = np.random.default_rng(5)
        unique = comp.compress_array(rng.normal(size=arr.shape), 1e-6)
        assert deduped.aliased_block_count == 15
        assert unique.aliased_block_count == 0
        assert deduped.nbytes < unique.nbytes

    def test_serialised_roundtrip_and_random_access_on_alias(self):
        arr, tile = _tiled()
        comp = create_blocked_compressor("sz3", block_shape=(8, 8))
        blob = CompressedBlob.from_bytes(
            comp.compress_array(arr, 1e-6).to_bytes()
        )
        # block 5 is an alias; decoding it reads the representative's section
        recon = comp.decompress_block(blob, 5)
        assert np.abs(recon - tile).max() <= 1e-6 * (1 + 1e-9)
        entry = blob.block_entry(5)
        assert entry["alias_of"] == 0
        assert entry["section"] == "block:0"

    def test_unique_content_gets_no_aliases(self):
        rng = np.random.default_rng(3)
        arr = rng.normal(size=(32, 32))
        comp = create_blocked_compressor("sz3", block_shape=(8, 8))
        blob = comp.compress_array(arr, 1e-4)
        assert blob.aliased_block_count == 0
        assert all(e.get("alias_of") is None for e in blob.block_index)

    @pytest.mark.parametrize("data_builder", [_tiled, None])
    def test_inline_and_thread_paths_byte_identical(self, data_builder, monkeypatch):
        # 8x8 blocks are far below the production grain: lower it so the
        # threaded side really fans out.
        monkeypatch.setattr(sz_pipeline, "_POOL_GRAIN_ELEMENTS", 1)
        arr = _tiled()[0] if data_builder else _mixed()
        for name in ("sz3", "sz3-fast"):
            inline = create_blocked_compressor(name, block_shape=(8, 8))
            threaded = create_blocked_compressor(
                name,
                block_shape=(8, 8),
                block_executor=ParallelExecutor(block_workers=2).map_blocks,
            )
            assert (
                inline.compress_array(arr, 1e-6).to_bytes()
                == threaded.compress_array(arr, 1e-6).to_bytes()
            )

    def test_shared_codebook_identical_to_no_dedup_frequencies(self):
        # Multiplicity-weighted frequency pooling must yield the same
        # shared codebook the per-block (no-dedup) pooling would: compare
        # against an array with the same blocks laid out uniquely.
        arr = _mixed()
        comp = create_blocked_compressor("sz3", block_shape=(8, 8))
        blob = comp.compress_array(arr, 1e-6)
        assert blob.codebook_mode == "shared"
        recon = comp.decompress_blob(blob)
        assert np.abs(recon - arr).max() <= 1e-6 * (1 + 1e-9)

    def test_assemble_rejects_alias_without_representative(self):
        arr, _ = _tiled((2, 2))
        comp = create_blocked_compressor("sz3-fast", block_shape=(8, 8))
        blob = comp.compress_array(arr, 1e-6)
        header = blob._stream_header()
        # drop the representative but keep an alias pointing at it
        blocks = [
            (entry, blob.container.get_section(entry["section"]))
            if entry.get("alias_of") is None
            else (entry, b"")
            for entry in blob.block_index
        ]
        orphaned = [
            (dict(e, id=i, alias_of=99, section="block:99"), p) if e.get("alias_of") is not None else (e, p)
            for i, (e, p) in enumerate(blocks)
        ]
        with pytest.raises(EncodingError):
            CompressedBlob.assemble(header, orphaned)


class TestBlockStore:
    def test_cross_compressor_reuse_is_byte_identical(self, tmp_path):
        cache = BlobCache(str(tmp_path))
        rng = np.random.default_rng(0)
        arr = rng.normal(size=(16, 16))
        first = create_blocked_compressor(
            "sz3-fast", block_shape=(8, 8), block_cache=cache
        )
        cold = first.compress_array(arr, 1e-3).to_bytes()
        assert cache.stats.block_misses == 4
        second = create_blocked_compressor(
            "sz3-fast", block_shape=(8, 8), block_cache=cache
        )
        warm = second.compress_array(arr, 1e-3).to_bytes()
        assert warm == cold
        assert cache.stats.block_hits == 4

    def test_per_block_codebook_mode_also_caches(self, tmp_path):
        cache = BlobCache(str(tmp_path))
        rng = np.random.default_rng(1)
        arr = rng.normal(size=(16, 16))
        kwargs = dict(block_shape=(8, 8), shared_codebook=False, block_cache=cache)
        cold = create_blocked_compressor("sz3", **kwargs).compress_array(arr, 1e-3)
        warm = create_blocked_compressor("sz3", **kwargs).compress_array(arr, 1e-3)
        assert warm.to_bytes() == cold.to_bytes()
        assert cache.stats.block_hits == 4

    def test_shared_codebook_mode_bypasses_block_store(self, tmp_path):
        cache = BlobCache(str(tmp_path))
        rng = np.random.default_rng(2)
        arr = rng.normal(size=(16, 16))
        comp = create_blocked_compressor("sz3", block_shape=(8, 8), block_cache=cache)
        comp.compress_array(arr, 1e-3)
        # shared-codebook payloads are not self-contained → never cached
        assert cache.entry_count("block") == 0
        assert cache.stats.block_hits == 0 and cache.stats.block_misses == 0

    def test_differing_bounds_and_selection_modes_miss(self, tmp_path):
        cache = BlobCache(str(tmp_path))
        rng = np.random.default_rng(3)
        arr = rng.normal(size=(16, 16))
        create_blocked_compressor(
            "sz3-fast", block_shape=(8, 8), block_cache=cache
        ).compress_array(arr, 1e-3)
        create_blocked_compressor(
            "sz3-fast", block_shape=(8, 8), block_cache=cache
        ).compress_array(arr, 1e-2)
        assert cache.stats.block_hits == 0
        create_blocked_compressor(
            "sz3-fast", block_shape=(8, 8), block_cache=cache, adaptive_predictor=True
        ).compress_array(arr, 1e-3)
        assert cache.stats.block_hits == 0

    def test_thread_path_serves_the_block_store_the_inline_path_filled(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(sz_pipeline, "_POOL_GRAIN_ELEMENTS", 1)
        cache = BlobCache(str(tmp_path))
        rng = np.random.default_rng(4)
        arr = rng.normal(size=(16, 16))
        inline = create_blocked_compressor(
            "sz3-fast", block_shape=(8, 8), block_cache=cache
        )
        cold = inline.compress_array(arr, 1e-3).to_bytes()
        threaded = create_blocked_compressor(
            "sz3-fast",
            block_shape=(8, 8),
            block_cache=cache,
            block_executor=ParallelExecutor(block_workers=2).map_blocks,
        )
        warm = threaded.compress_array(arr, 1e-3).to_bytes()
        assert warm == cold
        assert cache.stats.block_hits == 4

    def test_registry_names_round_trip(self):
        # every registered pipeline accepts the block-cache wiring
        for name in available_compressors():
            create_blocked_compressor(name, block_cache=None)
