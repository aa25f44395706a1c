"""Equivalence tests for the threaded encode path.

The block thread pool is pure performance work: it is not allowed to
change what comes out the other end.  These tests pin that contract —

* blocked compression through the thread pool must produce blobs
  *byte-identical* to the inline loop, in every codebook mode — both run
  the same closures, which these tests hold them to.  (The process
  backend these tests used to compare against is gone; what is left of
  it is the typed error for asking for it.)
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.compression import create_blocked_compressor
from repro.compression.errorbound import ErrorBound
from repro.compression.sz import pipeline as sz_pipeline
from repro.core import OcelotConfig
from repro.core.parallel import ParallelExecutor
from repro.errors import ConfigurationError

_SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _pool_grain(elements: int = 1):
    """Lower the thread fan-out grain so the tiny blocks here cross threads.

    The blocks these tests use (12^2, 16^2) are far below the production
    grain and would run inline; the contracts under test — shared
    codebook, adaptive choice, rANS tables and the ``decoded`` memo under
    *concurrent* block tasks — need the thread pool to really fan out.
    """
    return mock.patch.object(sz_pipeline, "_POOL_GRAIN_ELEMENTS", elements)


def _data() -> np.ndarray:
    rng = np.random.default_rng(7)
    return np.cumsum(rng.normal(size=(48, 48)), axis=1).astype(np.float64)


def _block_executor(fanout: str):
    """``"inline"``: no executor at all; ``"thread"``: a 2-thread pool."""
    return ParallelExecutor(block_workers=2).map_blocks if fanout == "thread" else None


def _compress_blob_bytes(
    fanout: str,
    shared: bool,
    adaptive: bool = False,
    entropy: str = None,
) -> bytes:
    compressor = create_blocked_compressor(
        "sz3",
        block_shape=16,
        block_executor=_block_executor(fanout),
        adaptive_predictor=adaptive,
        shared_codebook=shared,
        entropy_stage=entropy,
    )
    with _pool_grain():
        result = compressor.compress(_data(), ErrorBound.relative(1e-3))
        recon = compressor.decompress(result.blob)
    assert np.isfinite(recon).all()
    return result.blob.to_bytes()


def _spy_on_map_blocks(monkeypatch) -> list:
    """Record the item count of every ``ParallelExecutor.map_blocks`` call."""
    calls = []
    real = ParallelExecutor.map_blocks

    def spy(self, func, items):
        calls.append(len(items))
        return real(self, func, items)

    monkeypatch.setattr(ParallelExecutor, "map_blocks", spy)
    return calls


class TestThreadPoolEquivalence:
    @pytest.mark.parametrize("shared", [True, False], ids=["shared", "per-block"])
    def test_thread_blobs_byte_identical_to_inline_blobs(self, shared):
        assert _compress_blob_bytes("thread", shared) == _compress_blob_bytes(
            "inline", shared
        )

    def test_adaptive_mode_byte_identical(self):
        assert _compress_blob_bytes(
            "thread", shared=True, adaptive=True
        ) == _compress_blob_bytes("inline", shared=True, adaptive=True)

    def test_the_process_backend_is_gone(self, capsys):
        """Asking for it fails typed (config), by signature (executor) and
        in argparse (CLI) — never by quietly running threads instead."""
        from repro.cli import main

        with pytest.raises(ConfigurationError, match="removed"):
            OcelotConfig(worker_backend="process")
        assert OcelotConfig(worker_backend="thread").worker_backend == "thread"
        with pytest.raises(TypeError):
            ParallelExecutor(block_workers=2, worker_backend="process")
        with pytest.raises(SystemExit) as exit_info:
            main(["compress", "--worker-backend", "process"])
        assert exit_info.value.code == 2
        assert "--worker-backend" in capsys.readouterr().err

    @pytest.mark.parametrize("adaptive", [False, True], ids=["fixed", "adaptive"])
    def test_thread_side_of_these_comparisons_crosses_threads(self, monkeypatch, adaptive):
        """The thread blobs above come from a real fan-out, not the inline
        path: every blocked phase of compress and decompress reaches
        ``map_blocks`` with all nine blocks."""
        fanned = _spy_on_map_blocks(monkeypatch)
        _compress_blob_bytes("thread", shared=True, adaptive=adaptive)
        assert fanned == [9, 9, 9]  # choose + finish, then decode


class TestEntropyStageEquivalence:
    """The rANS stage must not perturb the blob-determinism contract.

    The inline loop and the thread pool produce byte-identical blobs
    under every entropy stage, adaptive predictor selection included;
    and any reader decodes any stage — or a mix of them — because the
    codec rides in each block's section tags, not in reader config.
    """

    @pytest.mark.parametrize("shared", [True, False], ids=["shared", "per-block"])
    @pytest.mark.parametrize("entropy", ["huffman", "rans", "none"])
    def test_inline_thread_byte_identical_per_stage(self, entropy, shared):
        assert _compress_blob_bytes(
            "thread", shared, entropy=entropy
        ) == _compress_blob_bytes("inline", shared, entropy=entropy)

    @pytest.mark.parametrize("entropy", ["huffman", "rans"])
    def test_adaptive_per_block_inline_thread_byte_identical(self, entropy):
        """Concurrent block tasks must pick the same predictors (and
        build the same per-block models) as the inline loop does."""
        assert _compress_blob_bytes(
            "thread", shared=False, adaptive=True, entropy=entropy
        ) == _compress_blob_bytes("inline", shared=False, adaptive=True, entropy=entropy)

    @pytest.mark.parametrize("entropy", ["huffman", "rans", "none"])
    def test_default_reader_decodes_any_stage(self, entropy):
        """Decode dispatches on the codec stored per section, so a
        default-config (huffman) reader handles every stage's blobs."""
        from repro.compression import CompressedBlob

        rng = np.random.default_rng(9)
        data = np.cumsum(rng.normal(size=(40, 40)), axis=0).astype(np.float32)
        writer = create_blocked_compressor("sz3", block_shape=16, entropy_stage=entropy)
        blob = writer.compress(data, ErrorBound(value=1e-3, mode="abs")).blob
        reader = create_blocked_compressor("sz3")
        recon = reader.decompress(CompressedBlob.from_bytes(blob.to_bytes()))
        assert float(np.max(np.abs(recon.astype(np.float64) - data))) <= 1e-3 * (1 + 1e-9)

    def test_default_reader_decodes_a_mixed_codec_blob(self):
        """No writer mixes codecs per block any more (older builds did,
        and a wide-alphabet rANS block still degrades to Huffman), so the
        mix is made here: sections taken alternately from a Huffman- and
        a rANS-configured blob of one field, joined with ``assemble``."""
        from repro.compression import CompressedBlob

        rng = np.random.default_rng(9)
        data = np.cumsum(rng.normal(size=(40, 40)), axis=0).astype(np.float32)
        blobs = [
            create_blocked_compressor(
                "sz3", block_shape=16, shared_codebook=False, entropy_stage=stage
            ).compress(data, ErrorBound(value=1e-3, mode="abs")).blob
            for stage in ("huffman", "rans")
        ]
        messages = [
            CompressedBlob.parse_block(blobs[block_id % 2].export_block(block_id))
            for block_id in range(blobs[0].num_blocks)
        ]
        mixed = CompressedBlob.assemble(
            messages[0][0], [(entry, payload) for _, entry, payload in messages]
        )
        assert [entry["entropy"] for entry in mixed.block_index] == ["huffman", "rans"] * 4 + [
            "huffman"
        ]
        reader = create_blocked_compressor("sz3")
        recon = reader.decompress(CompressedBlob.from_bytes(mixed.to_bytes()))
        assert float(np.max(np.abs(recon.astype(np.float64) - data))) <= 1e-3 * (1 + 1e-9)
        block = reader.decompress_block(mixed, 1)  # random access dispatches on the tag too
        assert np.array_equal(block, recon[:16, 16:32])


class TestEntropyStageRoundTrip:
    """Every registry pipeline round-trips under every entropy stage."""

    @_SETTINGS
    @given(
        entropy=st.sampled_from(["huffman", "rans", "none"]),
        name=st.sampled_from(
            ["sz3", "sz3-linear", "sz2", "sz-lorenzo", "zfp-like", "sz3-fast"]
        ),
        fanout=st.sampled_from(["inline", "thread"]),
        seed=st.integers(0, 1000),
    )
    def test_every_pipeline_round_trips_under_every_stage(
        self, entropy, name, fanout, seed
    ):
        rng = np.random.default_rng(seed)
        data = np.cumsum(rng.normal(size=(24, 24)), axis=0).astype(np.float32)
        compressor = create_blocked_compressor(
            name,
            block_shape=12,
            block_executor=_block_executor(fanout),
            entropy_stage=entropy,
        )
        bound = ErrorBound(value=1e-3, mode="abs")
        with _pool_grain():
            recon = compressor.decompress(compressor.compress(data, bound).blob)
        slack = 1e-3 * (1 + 1e-9) + np.finfo(np.float32).eps * float(
            np.max(np.abs(data))
        )
        assert recon.shape == data.shape
        assert float(np.max(np.abs(recon.astype(np.float64) - data))) <= slack
