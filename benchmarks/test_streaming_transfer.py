"""Streaming transfer — overlapped makespan vs the phase-serialised sum.

The streamed pipeline's claim is architectural: shipping each block as it
finishes encoding (and decoding blocks as they arrive) turns the
end-to-end makespan from the *sum* of compress + transfer + decompress
into roughly their *max* plus pipeline fill/drain.  This benchmark runs
the same ≥4-file dataset through the bulk and streamed paths on the
simulated Anvil→Cori route and records both timelines; the acceptance
bar is ``streamed total < bulk compress_s + transfer_s`` (strictly —
before even counting the bulk path's decompression).

A second benchmark pins the random-access property the stream relies
on: decoding one block of a lazily parsed blob must not materialise the
other block sections.

(D) deterministic: both timelines are simulated seconds, and the same
comparison run twice in-process gives identical reports.  What a
single-block decode costs in wall time is ``bench/``'s
``pipeline.decompress_MBps`` on ``streamed_rans_adaptive``, which is made
of per-block ``decompress_block`` calls.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.compression import CompressedBlob, ErrorBound, create_compressor
from repro.core import Ocelot, OcelotConfig
from repro.datasets import generate_application

from common import print_table

APPLICATION = "miranda"
SCALE = 0.05
BLOCK_SIZE = 16
#: Stage files at paper-like volumes so WAN time is comparable to the
#: (assumed-throughput) compression time — the regime where overlap matters.
SIZE_SCALE = 3000.0


def _config(**overrides) -> OcelotConfig:
    base = dict(
        mode="compressed",
        compressor="sz3-fast",
        block_size=BLOCK_SIZE,
        size_scale=SIZE_SCALE,
        compression_nodes=2,
        decompression_nodes=2,
        cores_per_node=4,
        assumed_compression_throughput_mbps=300.0,
        assumed_decompression_throughput_mbps=600.0,
    )
    base.update(overrides)
    return OcelotConfig(**base)


def _row(label: str, report) -> dict:
    timings = report.timings
    return {
        "path": label,
        "compress_s": round(timings.compression_s, 3),
        "transfer_s": round(timings.transfer_s, 3),
        "decompress_s": round(timings.decompression_s, 3),
        "total_s": round(report.total_s, 3),
        "ratio": round(report.compression_ratio, 2),
        "psnr_db": round(report.measured_psnr_db or 0.0, 1),
    }


@pytest.mark.benchmark(group="streaming-transfer")
def test_streamed_makespan_beats_serialized_phases(benchmark):
    dataset = generate_application(APPLICATION, snapshots=1, scale=SCALE, seed=3)
    assert dataset.file_count >= 4

    def run():
        bulk = Ocelot(_config()).transfer_dataset(
            dataset, "anvil", "cori", mode="compressed"
        )
        streamed = Ocelot(_config(transfer_mode="streamed", stream_window=16)).transfer_dataset(
            dataset, "anvil", "cori", mode="compressed"
        )
        return bulk, streamed

    bulk, streamed = benchmark.pedantic(run, rounds=1, iterations=1)
    # Nothing in either timeline is measured wall: a second run agrees to
    # the last digit.
    assert [report.as_dict() for report in run()] == [bulk.as_dict(), streamed.as_dict()]
    rows = [_row("bulk (serialised)", bulk), _row("streamed (overlapped)", streamed)]
    rows[1]["total_s"] = round(streamed.timings.streaming_s, 3)
    print_table(
        f"Streaming vs bulk: {APPLICATION} x{dataset.file_count} files, "
        f"anvil->cori, block {BLOCK_SIZE}, window 16",
        rows,
    )
    # Same data must come out of both paths.
    assert streamed.measured_psnr_db == pytest.approx(bulk.measured_psnr_db, rel=1e-6)
    # The acceptance bar: the overlapped makespan undercuts the bulk
    # path's compress + transfer sum (strictly), and a fortiori its total.
    bulk_sum = bulk.timings.compression_s + bulk.timings.transfer_s
    assert streamed.total_s < bulk_sum
    assert streamed.total_s < bulk.total_s


@pytest.mark.benchmark(group="streaming-transfer")
def test_random_access_decode_skips_other_blocks(benchmark):
    """One block decodes without parsing its neighbours."""
    rng = np.random.default_rng(9)
    x = np.linspace(0, 6 * np.pi, 1024)
    data = (np.sin(x)[:, None] * np.cos(x)[None, :]).astype(np.float32)
    data += 0.01 * rng.standard_normal(data.shape).astype(np.float32)
    compressor = create_compressor("sz3-fast").configure_blocks(block_shape=128)
    payload = compressor.compress(data, ErrorBound(value=1e-3, mode="abs")).blob.to_bytes()

    def run():
        full = create_compressor("sz3-fast").decompress(CompressedBlob.from_bytes(payload))
        lazy_blob = CompressedBlob.from_bytes(payload)
        block = create_compressor("sz3-fast").decompress_block(lazy_blob, 0)
        return full, lazy_blob, block

    full, lazy_blob, block = benchmark.pedantic(run, rounds=1, iterations=1)
    print_table(
        "Random access: one block of a lazily parsed blob (1024x1024 float32, block 128)",
        [{
            "blocks": lazy_blob.num_blocks,
            "sections_materialised": len(lazy_blob.container.loaded_section_names()),
        }],
    )
    assert lazy_blob.num_blocks == 64
    # Correctness: the random-access block equals the full decode's region.
    np.testing.assert_array_equal(block, full[:128, :128])
    # The proof: exactly one of the 64 block sections was ever parsed.
    assert lazy_blob.container.loaded_section_names() == ["block:0"]
