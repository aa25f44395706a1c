"""Block scaling — whole-array vs blocked compression, counted not timed.

The blocked engine is the architectural change that lets the
reproduction exploit many cores per file (the paper compresses with
SZ-style pipelines over independent blocks).  This benchmark compresses
one synthetic field three ways — whole-array, blocked inline, and blocked
through the executor's block thread pool — and pins what blocking may
and may not change: every path honours the error bound, the pool changes
no byte, and independent blocks cost well under 1 % of blob size.

(D) deterministic.  Which path is *faster* is a wall ratio between two
production configurations: ``bench/`` reads it as
``pipeline.compress_MBps`` on ``bulk_sz3_huffman`` (blocked).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.compression import CompressedBlob, ErrorBound, create_compressor
from repro.core import ParallelExecutor

from common import print_table

COMPRESSOR = "sz-lorenzo-fast"
ERROR_BOUND = 1e-3
#: float32 => 16 MiB; 512^2-element blocks sit above the 2^17-element
#: grain below which the pipeline runs blocks inline whatever the pool.
FIELD_SHAPE = (2048, 2048)
BLOCK_SHAPE = 512
BLOCK_WORKERS = 4
#: Blocked / whole-array blob bytes.  Measured 1.0021: each block
#: restarts its predictor and carries a section header.
MAX_BLOCKED_SIZE_RATIO = 1.01


def _synthetic_field() -> np.ndarray:
    """A field with smooth structure plus mild noise."""
    rng = np.random.default_rng(42)
    x = np.linspace(0, 8 * np.pi, FIELD_SHAPE[0])
    field = np.sin(x)[:, None] * np.cos(x)[None, :]
    field = field + 0.01 * rng.standard_normal(FIELD_SHAPE)
    return field.astype(np.float32)


def _measure(compressor, data, bound) -> tuple:
    """One path's table row and its serialised blob."""
    result = compressor.compress(data, bound)
    payload = result.blob.to_bytes()
    recon = compressor.decompress(CompressedBlob.from_bytes(payload))
    err = float(np.abs(data.astype(np.float64) - recon.astype(np.float64)).max())
    row = {
        "ratio": result.compression_ratio,
        "blob_bytes": len(payload),
        "max_abs_error": err,
        "blocks": result.blob.num_blocks,
    }
    return row, payload


@pytest.mark.benchmark(group="block-scaling")
def test_blocked_compression_keeps_bound_and_blob_size(benchmark):
    data = _synthetic_field()
    bound = ErrorBound(value=ERROR_BOUND, mode="abs")

    def run():
        whole = _measure(create_compressor(COMPRESSOR), data, bound)
        blocked_serial = _measure(
            create_compressor(COMPRESSOR).configure_blocks(block_shape=BLOCK_SHAPE),
            data,
            bound,
        )
        executor = ParallelExecutor(block_workers=BLOCK_WORKERS)
        blocked_parallel = _measure(
            create_compressor(COMPRESSOR).configure_blocks(
                block_shape=BLOCK_SHAPE, block_executor=executor.map_blocks
            ),
            data,
            bound,
        )
        return whole, blocked_serial, blocked_parallel

    (whole, _), (blocked_serial, serial_payload), (blocked_parallel, parallel_payload) = (
        benchmark.pedantic(run, rounds=1, iterations=1)
    )
    rows = [
        {"path": "whole-array", **whole},
        {"path": "blocked (inline)", **blocked_serial},
        {"path": f"blocked ({BLOCK_WORKERS} workers)", **blocked_parallel},
    ]
    print_table(
        f"Block scaling: {COMPRESSOR} on {data.nbytes / 2**20:.0f} MiB "
        f"({FIELD_SHAPE[0]}x{FIELD_SHAPE[1]} float32, block {BLOCK_SHAPE})",
        rows,
    )
    # Every path honours the error bound (modulo the float32 cast slack
    # the verify path also allows: the float64 reconstruction rounds by up
    # to eps * |value| when stored back as float32).
    cast_slack = float(np.finfo(np.float32).eps) * float(np.abs(data).max())
    for row in rows:
        assert row["max_abs_error"] <= ERROR_BOUND * (1 + 1e-9) + cast_slack
    assert whole["blocks"] == 1
    assert blocked_parallel["blocks"] == (FIELD_SHAPE[0] // BLOCK_SHAPE) ** 2
    # The pool decides when a block is encoded, never what it encodes to.
    assert parallel_payload == serial_payload
    assert blocked_serial["blob_bytes"] <= MAX_BLOCKED_SIZE_RATIO * whole["blob_bytes"]
