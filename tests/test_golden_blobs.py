"""Golden blobs: the bytes every registry pipeline writes are pinned.

``golden_blobs.json`` holds, for one seeded field and every registry
pipeline x blocked-mode variant, a blake2b digest of ``to_bytes()``
under the ``raw`` lossless backend (so a zlib build cannot move a block
payload), plus ``deflate`` rows pinned by blob length and by a digest of
the *decoded* array.  The digests were recorded when container version 3
became the one written; a refactor of the encode path that changes any
of them changed the wire format.  ``python tests/test_golden_blobs.py`` prints a fresh table,
``python tests/test_golden_blobs.py --diff`` only the rows that moved
(with the length delta of each ``deflate`` row).

The whole matrix is written three times — by the inline loop, through a
4-thread executor with the fan-out grain lowered so the 16x16 blocks
really cross threads, and with a helper lane injected, which deflates
every block and inflates every section beside the caller — and all
three must equal the recorded table.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from typing import Any, Dict, Iterator, List, Tuple

import numpy as np
import pytest

from repro.compression import (
    ErrorBound,
    available_compressors,
    create_blocked_compressor,
    create_compressor,
)
from repro.compression.sz import pipeline as sz_pipeline
from repro.compression.sz.pipeline import PipelineConfig, PredictionPipelineCompressor
from repro.core.parallel import HelperLane, ParallelExecutor

GOLDEN_PATH = Path(__file__).with_name("golden_blobs.json")

PIPELINES = (
    "sz-lorenzo", "sz-lorenzo-fast", "sz2", "sz3", "sz3-fast", "sz3-linear", "zfp-like",
)

#: Blocked-mode variants: ``entropy`` overrides the pipeline's stage, the
#: rest are ``configure_blocks`` arguments.  ``whole`` is the v1 blob.
VARIANTS: Dict[str, Dict[str, Any]] = {
    "whole": {},
    "shared": {"block_shape": 16, "shared_codebook": True},
    "per-block": {"block_shape": 16, "shared_codebook": False},
    "adaptive": {"block_shape": 16, "shared_codebook": False, "adaptive_predictor": True},
    "adaptive-shared": {"block_shape": 16, "shared_codebook": True, "adaptive_predictor": True},
    "rans": {"block_shape": 16, "shared_codebook": True, "entropy": "rans"},
    "rans-per-block": {"block_shape": 16, "shared_codebook": False, "entropy": "rans"},
    "none": {"block_shape": 16, "entropy": "none"},
}

ERROR_BOUND = ErrorBound(value=0.01, mode="abs")


def golden_field() -> np.ndarray:
    """A 48x48 float32 random walk whose last block column repeats the first.

    Built from bounded integers and one division by a power of two, so
    no transcendental or float-sampling routine sits between the seed
    and the bytes; the repeated column makes three 16x16 blocks copies of
    three others, each still stored as its own section.
    """
    steps = np.random.default_rng(2023).integers(-(1 << 15), 1 << 15, size=(48, 48))
    field = (np.cumsum(steps, axis=1) / 4096.0).astype(np.float32)
    field[:, 32:] = field[:, :16]
    return field


def _digest(data: bytes) -> str:
    return hashlib.blake2b(data, digest_size=8).hexdigest()


def _pipeline(name: str, lossless: str, variant: Dict[str, Any], block_executor, helper_lane):
    options = dict(variant, block_executor=block_executor, helper_lane=helper_lane)
    entropy = options.pop("entropy", None)
    if lossless == "deflate":  # the registry's own wiring, untouched
        return create_blocked_compressor(name, entropy_stage=entropy, **options)
    base = create_compressor(name)
    config = PipelineConfig(
        entropy_stage=entropy or base.config.entropy_stage, lossless_backend=lossless
    )
    pipeline = PredictionPipelineCompressor(base.predictor, config=config, name=base.name)
    return pipeline.configure_blocks(**options)


def golden_rows(block_executor=None, helper_lane=None) -> Iterator[Tuple[str, Any]]:
    """``(row id, pinned value)`` for the whole matrix, in a fixed order."""
    field = golden_field()
    for name in PIPELINES:
        for label, variant in VARIANTS.items():
            for lossless in ("raw", "deflate"):
                pipeline = _pipeline(name, lossless, variant, block_executor, helper_lane)
                blob = pipeline.compress(field, ERROR_BOUND).blob
                data = blob.to_bytes()
                if lossless == "deflate":
                    inflated = pipeline.inflate_sections(blob)
                    decoded = np.ascontiguousarray(pipeline.decompress(blob, inflated))
                    value: Any = [len(data), _digest(decoded.tobytes())]
                else:
                    value = _digest(data)
                yield f"{name}/{label}/{lossless}", value


def test_matrix_covers_the_registry():
    assert sorted(PIPELINES) == available_compressors()


class _CountingLane(HelperLane):
    """A helper lane that counts what it is handed, and takes every call,
    however small (the golden blocks are all under the grain)."""

    GRAIN_BYTES = 0
    submitted = 0

    def submit(self, func, *args, nbytes=None):
        self.submitted += 1
        return super().submit(func, *args, nbytes=nbytes)


@pytest.mark.parametrize("fanout", ["inline", "threads", "lane"])
def test_blobs_match_the_recorded_digests(fanout, monkeypatch):
    golden = json.loads(GOLDEN_PATH.read_text())
    if fanout == "inline":
        fresh = dict(golden_rows())
    elif fanout == "lane":
        lane = _CountingLane("golden-lane")
        fresh = dict(golden_rows(helper_lane=lane))
        # Every block of every row is deflated, and every deflate row's
        # sections inflated, through the lane.
        assert lane.submitted >= 7 * 8 * 2
    else:
        monkeypatch.setattr(sz_pipeline, "_POOL_GRAIN_ELEMENTS", 1)
        pool = ParallelExecutor(block_workers=4).map_blocks
        fanned = []

        def executor(func, items):
            fanned.append(len(items))
            return pool(func, items)

        fresh = dict(golden_rows(executor))
        # 7 pipelines x 7 blocked variants x 2 backends, each fanned out
        # at least once to compress, over all 9 blocks.
        assert len(fanned) >= 7 * 7 * 2 and set(fanned) <= {9}
    assert sorted(fresh) == sorted(golden)
    moved = {row: (golden[row], fresh[row]) for row in golden if fresh[row] != golden[row]}
    assert not moved


def diff_rows() -> Iterator[str]:
    """One line per row that differs from ``golden_blobs.json``.

    ``deflate`` rows carry their blob-length delta (and say when the
    decoded array moved); digest rows can only say that they moved.
    """
    golden = json.loads(GOLDEN_PATH.read_text())
    fresh = dict(golden_rows())
    for row in sorted(set(golden) | set(fresh)):
        old, new = golden.get(row), fresh.get(row)
        if old == new:
            continue
        if old is None or new is None:
            yield f"{row}: {'added' if old is None else 'removed'}"
        elif isinstance(new, list):
            delta = new[0] - old[0]
            decoded = "" if new[1] == old[1] else ", decoded array moved"
            yield f"{row}: {old[0]} -> {new[0]} B ({delta:+d}, {delta / old[0]:+.2%}){decoded}"
        else:
            yield f"{row}: digest moved"


def main(argv: List[str]) -> None:
    """Print a fresh table, or with ``--diff`` only what moved against the recorded one."""
    if "--diff" in argv:
        moved = list(diff_rows())
        print("\n".join(moved + [f"{len(moved)} rows differ from {GOLDEN_PATH.name}"]))
        return
    rows = sorted(golden_rows())
    print("{\n" + ",\n".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in rows) + "\n}")


if __name__ == "__main__":
    main(sys.argv[1:])
