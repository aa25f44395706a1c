"""Blob-cache effectiveness — warm-run speedup and miss overhead.

The content-addressed cache short-circuits the compress phase whenever a
(file content, pipeline) pair was already encoded: the orchestrator ships
the cached blob without requesting compute nodes.  Two claims are
benchmarked on the simulated Anvil→Cori route:

1. **Warm vs cold makespan** — a re-submitted dataset must complete at
   least ``MIN_WARM_SPEEDUP``x faster end-to-end (simulated seconds),
   because the dominant compress phase collapses to a
   parallel-filesystem read.
2. **Miss overhead** — an all-miss (cold) run does one content digest
   and one blob-tier put per file and nothing else the cache-off run
   does not; a hit writes nothing.  What a digest or a put costs in wall
   time is ``bench/``'s ``cache.digest_MBps`` / ``cache.put_ms_p50`` /
   ``cache.cold_iter_s`` on ``resync_cache_grouped``.

(D) deterministic, both.
"""

from __future__ import annotations

import pytest

import repro.core.orchestrator as orchestrator_module
from repro.cache import build_blob_cache
from repro.core import Ocelot, OcelotConfig
from repro.datasets import generate_application
from repro.service import OcelotService, TransferSpec

from common import print_table

APPLICATION = "miranda"
SCALE = 0.15
#: Paper-like staged volumes: the compress phase dominates the cold
#: makespan, which is exactly the regime a warm cache accelerates.
SIZE_SCALE = 3000.0
MIN_WARM_SPEEDUP = 5.0


def _config(tmp_path, **overrides) -> OcelotConfig:
    base = dict(
        mode="compressed",
        compressor="sz3-fast",
        block_size=64,
        size_scale=SIZE_SCALE,
        compression_nodes=2,
        decompression_nodes=2,
        cores_per_node=4,
        assumed_compression_throughput_mbps=60.0,
        assumed_decompression_throughput_mbps=2000.0,
        cache_dir=str(tmp_path / "cache"),
        cache_mode="readwrite",
    )
    base.update(overrides)
    return OcelotConfig(**base)


def _row(label: str, report) -> dict:
    timings = report.timings
    return {
        "run": label,
        "compress_s": round(timings.compression_s, 3),
        "transfer_s": round(timings.transfer_s, 3),
        "decompress_s": round(timings.decompression_s, 3),
        "total_s": round(report.total_s, 3),
        "hits": report.cache_hits,
        "misses": report.cache_misses,
    }


def _blobs(config: OcelotConfig) -> dict:
    """Entries and bytes of the blob cache, read back from disk."""
    return build_blob_cache(config).describe()["blob"]


@pytest.mark.benchmark(group="cache-effectiveness")
def test_warm_cache_speedup_and_miss_overhead(benchmark, tmp_path, monkeypatch):
    dataset = generate_application(APPLICATION, snapshots=1, scale=SCALE, seed=3)
    assert dataset.file_count >= 4
    cached = _config(tmp_path)

    digests = []
    real_digest = orchestrator_module.array_content_digest
    monkeypatch.setattr(
        orchestrator_module, "array_content_digest",
        lambda data: digests.append(data.nbytes) or real_digest(data),
    )

    def transfer(config):
        """One run: its report, the digests it took, the blobs it left."""
        digests.clear()
        report = Ocelot(config).transfer_dataset(dataset, "anvil", "cori", mode="compressed")
        return report, len(digests), _blobs(cached)

    def run():
        off = transfer(_config(tmp_path, cache_dir=None, cache_mode="off"))
        cold = transfer(cached)   # all misses, every blob hashed and persisted
        warm = transfer(cached)   # every file served from the cache, no compute nodes
        return off, cold, warm

    runs = benchmark.pedantic(run, rounds=1, iterations=1)
    (off, off_digests, off_blobs), (cold, cold_digests, cold_blobs) = runs[:2]
    warm, warm_digests, warm_blobs = runs[2]

    speedup = cold.total_s / warm.total_s
    rows = [_row("cache off", off), _row("cold (miss)", cold), _row("warm (hit)", warm)]
    print_table(
        f"Cache effectiveness: {APPLICATION} x{dataset.file_count} files, anvil->cori",
        rows,
    )
    print(f"warm speedup: {speedup:.2f}x (floor {MIN_WARM_SPEEDUP}x); cold run: "
          f"{cold_digests} digests, {cold_blobs['entries']} blob puts "
          f"for {dataset.file_count} files")

    # Hits and misses land where they should.
    assert cold.cache_misses == dataset.file_count and cold.cache_hits == 0
    assert warm.cache_hits == dataset.file_count and warm.cache_misses == 0
    # Cached blobs are byte-identical, so the wire volume and quality match.
    assert warm.transferred_bytes == cold.transferred_bytes
    assert warm.measured_psnr_db == cold.measured_psnr_db
    # The simulated makespan is cache-agnostic up to the digest/key stamp
    # in each blob's metadata (a few dozen wire bytes per file).
    assert cold.total_s == pytest.approx(off.total_s, rel=5e-3)

    # Claim 1: the warm makespan beats cold by the floor.
    assert speedup >= MIN_WARM_SPEEDUP
    # Claim 2: the miss path adds one digest and one blob put per file to
    # the cache-off run, which touches neither; a hit digests (that is
    # the lookup) and writes nothing.
    assert off_digests == 0 and off_blobs["entries"] == 0
    assert cold_digests == dataset.file_count
    assert cold_blobs["entries"] == dataset.file_count
    assert warm_digests == dataset.file_count
    assert warm_blobs == cold_blobs

    # Hit rate is visible through the job-event stream, not just the report.
    service = OcelotService(cached)
    handle = service.submit(TransferSpec(
        dataset=dataset, source="anvil", destination="cori", mode="compressed"
    ))
    service.run_pending()
    record = handle.as_dict()
    completed = next(e for e in record["events"] if e["kind"] == "completed")
    assert completed["detail"]["cache_hit_rate"] == 1.0

