"""Unit tests for the content-addressed cache store and its keys."""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.cache import (
    BlobCache,
    array_content_digest,
    blob_cache_key,
    pipeline_fingerprint,
)


def _fingerprint(**overrides):
    base = dict(
        compressor="sz3",
        error_bound_abs=1e-3,
        block_shape=32,
        codebook_mode="shared",
        adaptive_predictor=False,
    )
    base.update(overrides)
    return pipeline_fingerprint(**base)


class TestKeys:
    def test_content_digest_includes_dtype_and_shape(self):
        data = np.arange(12, dtype=np.float64)
        assert array_content_digest(data) != array_content_digest(data.astype(np.float32))
        assert array_content_digest(data) != array_content_digest(data.reshape(3, 4))
        assert array_content_digest(data) == array_content_digest(data.copy())

    def test_digest_of_noncontiguous_view_matches_copy(self):
        data = np.arange(64, dtype=np.float64).reshape(8, 8)
        view = data[::2, ::2]
        assert array_content_digest(view) == array_content_digest(view.copy())

    def test_differing_knobs_never_share_a_key(self):
        digest = array_content_digest(np.arange(6, dtype=np.float32))
        base = blob_cache_key(digest, _fingerprint())
        assert blob_cache_key(digest, _fingerprint(error_bound_abs=1e-2)) != base
        assert blob_cache_key(digest, _fingerprint(block_shape=16)) != base
        assert blob_cache_key(digest, _fingerprint(codebook_mode="per-block")) != base
        assert blob_cache_key(digest, _fingerprint(adaptive_predictor=True)) != base
        assert blob_cache_key(digest, _fingerprint(compressor="sz2")) != base

    def test_float_canonicalisation_is_exact(self):
        digest = array_content_digest(np.arange(6, dtype=np.float32))
        # 0.1 + 0.2 != 0.3 in binary; the fingerprint must not round them
        # into the same key through repr truncation.
        a = blob_cache_key(digest, _fingerprint(error_bound_abs=0.1 + 0.2))
        b = blob_cache_key(digest, _fingerprint(error_bound_abs=0.3))
        assert a != b


class TestBlobCacheStore:
    def test_roundtrip(self, tmp_path):
        cache = BlobCache(str(tmp_path))
        assert cache.put_blob("a" * 32, b"blob-bytes", meta={"file": "x.npy"})
        assert cache.get_blob("a" * 32) == b"blob-bytes"
        meta, payload = cache.get("blob", "a" * 32)
        assert (meta, payload) == ({"file": "x.npy"}, b"blob-bytes")
        assert cache.stats.blob_hits == 2
        assert "block_hits" not in cache.stats.as_dict()
        with pytest.raises(ValueError, match="unknown cache tier"):
            cache.get("block", "b" * 32)

    def test_miss_returns_none_and_counts(self, tmp_path):
        cache = BlobCache(str(tmp_path))
        assert cache.get_blob("0" * 32) is None
        assert cache.stats.blob_misses == 1
        assert cache.stats.blob_hit_rate == 0.0

    def test_read_mode_never_writes(self, tmp_path):
        writer = BlobCache(str(tmp_path))
        writer.put_blob("a" * 32, b"payload")
        reader = BlobCache(str(tmp_path), mode="read")
        assert not reader.writable
        assert not reader.put_blob("c" * 32, b"new")
        assert reader.get_blob("c" * 32) is None
        assert reader.get_blob("a" * 32) == b"payload"

    def test_off_mode_is_not_a_store_mode(self, tmp_path):
        with pytest.raises(ValueError):
            BlobCache(str(tmp_path), mode="off")

    def test_rewrite_of_existing_key_is_noop(self, tmp_path):
        cache = BlobCache(str(tmp_path))
        assert cache.put_blob("a" * 32, b"first")
        assert not cache.put_blob("a" * 32, b"second")
        assert cache.get_blob("a" * 32) == b"first"

    def test_corrupt_entry_is_a_miss_and_deleted(self, tmp_path):
        cache = BlobCache(str(tmp_path))
        cache.put_blob("a" * 32, b"payload")
        path = cache._entry_path("blob", "a" * 32)
        with open(path, "wb") as handle:
            handle.write(b"garbage")
        assert cache.get_blob("a" * 32) is None
        assert not os.path.exists(path)
        # the slot is usable again after the poison entry is gone
        assert cache.put_blob("a" * 32, b"fresh")
        assert cache.get_blob("a" * 32) == b"fresh"

    def test_lru_eviction_under_cap(self, tmp_path):
        cache = BlobCache(str(tmp_path), max_bytes=400)
        payload = b"x" * 100
        keys = [f"{i:02d}" + "0" * 30 for i in range(6)]
        for i, key in enumerate(keys):
            cache.put_blob(key, payload)
            # mtime resolution can be coarse; force a strict LRU order
            os.utime(cache._entry_path("blob", key), (i, i))
        cache.put_blob("ff" + "0" * 30, payload)
        assert cache.disk_usage() <= 400
        assert cache.stats.evictions > 0
        # the newest entry survived its own eviction pass
        assert cache.get_blob("ff" + "0" * 30) == payload
        # the oldest entries are the ones that went
        assert cache.get_blob(keys[0]) is None

    def test_hit_refreshes_lru_position(self, tmp_path):
        cache = BlobCache(str(tmp_path), max_bytes=350)
        payload = b"x" * 100
        keys = [f"{i:02d}" + "0" * 30 for i in range(3)]
        for i, key in enumerate(keys):
            cache.put_blob(key, payload)
            os.utime(cache._entry_path("blob", key), (i, i))
        # touch the stalest entry, then overflow the cap
        assert cache.get_blob(keys[0]) == payload
        cache.put_blob("ff" + "0" * 30, payload)
        assert cache.get_blob(keys[0]) == payload
        assert cache.get_blob(keys[1]) is None

    def test_a_capped_handle_walks_the_tree_once(self, tmp_path, monkeypatch):
        """The cap is enforced from the handle's own index, not by
        re-walking the tree on every put — and still holds after each."""
        BlobCache(str(tmp_path)).put_blob("e" * 32, b"x" * 100)  # found by the scan
        cache = BlobCache(str(tmp_path), max_bytes=1000)
        operator = BlobCache(str(tmp_path), mode="read")  # its reads do scan
        scans = []
        real_scan = cache._scan
        monkeypatch.setattr(cache, "_scan", lambda tier=None: scans.append(tier) or real_scan(tier))
        for i in range(50):
            assert cache.put_blob(f"{i:02d}" + "0" * 30, b"x" * 100)
            if i % 7 == 0:
                cache.get_blob(f"{i:02d}" + "0" * 30)
            assert operator.disk_usage() <= 1000
        assert scans == [None]
        assert cache.get_blob("e" * 32) is None  # the pre-existing entry went first
        assert cache.stats.evictions == 51 - 1000 // 114

    def test_scripted_sequence_evicts_what_the_walking_store_evicted(self, tmp_path):
        """Put / get / put on one handle: the victims, in order, recorded
        from the store that re-walked and re-sorted the tree by ``(mtime,
        path)`` on every put (run with 30 ms between operations so no two
        mtimes tied).  The index needs no sleeps: it orders by operation."""
        cache = BlobCache(str(tmp_path), max_bytes=350)  # three 114-byte entries

        def live():
            return {name[0] for _, _, names in os.walk(tmp_path) for name in names}

        evicted = []
        script = [("put", "a"), ("put", "b"), ("put", "c"), ("get", "a"), ("put", "d"),
                  ("put", "e"), ("get", "d"), ("put", "f"), ("get", "9"), ("put", "1"),
                  ("put", "b")]
        for op, name in script:
            before = live()
            if op == "put":
                assert cache.put_blob(name * 32, b"x" * 100)
            else:
                cache.get_blob(name * 32)
            evicted.extend(sorted(before - live()))
            assert cache.disk_usage() <= 350
        assert evicted == ["b", "c", "a", "e", "d"]
        assert cache.stats.evictions == 5

    def test_clear_and_describe(self, tmp_path):
        cache = BlobCache(str(tmp_path))
        cache.put_blob("a" * 32, b"one")
        summary = cache.describe()
        assert (summary["total_entries"], summary["blob"]["entries"]) == (1, 1)
        assert summary["total_bytes"] == summary["blob"]["bytes"] == cache.disk_usage("blob")
        assert cache.clear() == 1
        assert cache.describe()["total_entries"] == 0


class TestOlderBuildsBlockTier:
    """A cache directory an older build filled also holds ``block/<aa>/<key>.entry``
    files, which nothing reads any more: they still count, age out and clear."""

    @staticmethod
    def _legacy_block(root, mtime: float) -> str:
        shard = root / "block" / "bb"
        shard.mkdir(parents=True)
        path = shard / ("b" * 32 + ".entry")
        path.write_bytes(BlobCache._encode_record({}, b"x" * 100))
        os.utime(path, (mtime, mtime))
        return str(path)

    def test_a_capped_put_evicts_it_first(self, tmp_path):
        legacy = self._legacy_block(tmp_path, 0)
        cache = BlobCache(str(tmp_path), max_bytes=250)
        assert cache.disk_usage() == cache.describe()["total_bytes"] == 114
        assert cache.describe()["blob"] == {"entries": 0, "bytes": 0}
        assert cache.put_blob("a" * 32, b"y" * 100) and os.path.exists(legacy)
        assert cache.put_blob("c" * 32, b"z" * 100)
        assert not os.path.exists(legacy) and cache.stats.evictions == 1
        assert cache.get_blob("a" * 32) == b"y" * 100
        assert cache.disk_usage() == cache.disk_usage("blob") == 228

    def test_clear_removes_it(self, tmp_path):
        legacy = self._legacy_block(tmp_path, 0)
        cache = BlobCache(str(tmp_path))
        cache.put_blob("a" * 32, b"one")
        assert cache.describe()["total_entries"] == 2
        assert cache.clear() == 2
        assert not os.path.exists(legacy) and cache.describe()["total_entries"] == 0
