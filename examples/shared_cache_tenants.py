"""Shared blob cache: a second tenant rides the first tenant's warm cache.

Two "tenants" move the same published dataset (think a shared climate
snapshot) over the same route with the same pipeline settings.  Tenant A
pays the full compress cost and populates the content-addressed cache;
tenant B's run keys into the identical (content digest, pipeline) entries
and ships the cached blobs without ever acquiring compute nodes.  A third
run with a tighter error bound shows the other side of the coin: a
different pipeline fingerprint never reuses entries it didn't produce.

Run with::

    python examples/shared_cache_tenants.py
"""

from __future__ import annotations

import tempfile

from repro import OcelotConfig
from repro.cache import BlobCache
from repro.core import Ocelot
from repro.datasets import generate_application
from repro.utils.sizes import format_bytes, format_duration


def tenant_config(cache_dir: str, **overrides) -> OcelotConfig:
    """Each tenant builds its own Ocelot, but they share one cache dir."""
    base = dict(
        error_bound=1e-3,
        compressor="sz3-fast",
        mode="compressed",
        sentinel_enabled=False,
        # Stage files at ~paper-scale volumes so the compress phase is
        # the dominant cost a warm cache can remove.
        size_scale=40_000.0,
        assumed_compression_throughput_mbps=300.0,
        assumed_decompression_throughput_mbps=500.0,
        compression_nodes=2,
        decompression_nodes=2,
        cache_dir=cache_dir,
        cache_mode="readwrite",
    )
    base.update(overrides)
    return OcelotConfig(**base)


def run_tenant(label: str, cache_dir: str, dataset, **overrides) -> None:
    report = Ocelot(tenant_config(cache_dir, **overrides)).transfer_dataset(
        dataset, "anvil", "cori", mode="compressed"
    )
    rate = report.cache_hit_rate
    rate_text = f"(rate {rate:.0%})" if rate is not None else "(cache off)"
    print(f"{label:<22s} total {format_duration(report.total_s):>9s}  "
          f"compress {format_duration(report.timings.compression_s):>9s}  "
          f"hits {report.cache_hits}/{report.cache_hits + report.cache_misses} "
          f"{rate_text}")
    for note in report.notes:
        if "cache" in note:
            print(f"{'':<22s} note: {note}")


def main() -> None:
    cache_dir = tempfile.mkdtemp(prefix="ocelot-shared-cache-")
    # The published snapshot both tenants consume.
    dataset = generate_application("cesm", snapshots=1, scale=0.05, seed=7)
    print(f"shared cache: {cache_dir}\n")

    # Tenant A compresses everything and seeds the cache.
    run_tenant("tenant A (cold)", cache_dir, dataset)
    # Tenant B never compresses: every blob is served by content address.
    run_tenant("tenant B (warm)", cache_dir, dataset)
    # A stricter bound is a different pipeline — no entry can be reused.
    run_tenant("tenant C (eb=1e-4)", cache_dir, dataset, error_bound=1e-4)

    summary = BlobCache(cache_dir, mode="read").describe()
    print(f"\ncache now holds {summary['total_entries']} entries, "
          f"{format_bytes(summary['total_bytes'])}")


if __name__ == "__main__":
    main()
