"""Equivalence tests for the vectorised encode path.

The vectorised LZ77 matcher and the forked block workers are pure
performance work: neither is allowed to change what comes out the other
end.  These tests pin that contract —

* ``LZ77Codec.encode`` (vectorised) and the retained
  ``encode_bytewise`` reference may emit different token streams, but
  both must decode back to the exact input bytes;
* window-boundary matches must respect ``window_size`` (the regression
  for the stale-``window_start`` pruning bug);
* blocked compression on forked worker processes must produce blobs
  *byte-identical* to thread-pool blocked compression, in every codebook
  mode — both run the same closures, which these tests hold them to.
"""

from __future__ import annotations

import multiprocessing
import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.compression import create_blocked_compressor
from repro.compression.encoders.lz77 import LZ77Codec
from repro.compression.errorbound import ErrorBound
from repro.compression.sz import pipeline as sz_pipeline
from repro.core.parallel import ParallelExecutor
from repro.errors import ConfigurationError

_SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _byte_streams() -> st.SearchStrategy[bytes]:
    """Inputs spanning the encoder's regimes.

    Random bytes (no matches), a skewed alphabet (hash-chain collisions),
    all-equal runs (the overlapping-match/sentinel-tail path), periodic
    data (dominant offsets), and the empty input.
    """
    random_bytes = st.binary(min_size=0, max_size=4096)
    skewed = st.lists(
        st.integers(0, 3), min_size=0, max_size=4096
    ).map(lambda xs: bytes(xs))
    all_equal = st.tuples(st.integers(0, 255), st.integers(0, 6000)).map(
        lambda t: bytes([t[0]]) * t[1]
    )
    periodic = st.tuples(
        st.binary(min_size=1, max_size=48), st.integers(1, 200)
    ).map(lambda t: t[0] * t[1])
    return st.one_of(random_bytes, skewed, all_equal, periodic)


class TestLZ77Equivalence:
    @_SETTINGS
    @given(data=_byte_streams())
    def test_vectorised_and_bytewise_decode_to_same_bytes(self, data: bytes):
        codec = LZ77Codec()
        assert codec.decode(codec.encode(data)) == data
        assert codec.decode(codec.encode_bytewise(data)) == data

    @_SETTINGS
    @given(
        data=_byte_streams(),
        window=st.sampled_from([16, 256, 4096]),
        min_match=st.sampled_from([3, 8]),
    )
    def test_equivalence_holds_across_codec_parameters(
        self, data: bytes, window: int, min_match: int
    ):
        codec = LZ77Codec(window_size=window, min_match=min_match)
        assert codec.decode(codec.encode(data)) == data
        assert codec.decode(codec.encode_bytewise(data)) == data

    @pytest.mark.parametrize("encoder", ["encode", "encode_bytewise"])
    def test_window_boundary_matches_respect_window_size(self, encoder):
        """Regression: pruning against a stale ``window_start`` let the
        bytewise encoder keep candidates beyond the window.  Every match
        offset must stay within ``window_size`` or decode walks off the
        end of its history."""
        window = 64
        codec = LZ77Codec(window_size=window, max_candidates=4)
        # The 32-byte motif repeats at distance 160 (> window), with
        # in-window repeats at distance 32: only the near copies are
        # legal match sources.
        motif = bytes(range(32))
        filler = bytes((i * 7 + 3) % 256 for i in range(128))
        data = (motif + motif + filler) * 6
        payload = getattr(codec, encoder)(data)
        assert codec.decode(payload) == data

        import struct

        n = struct.unpack("<I", payload[:4])[0]
        assert n == len(data)
        offsets = [
            struct.unpack_from("<HBB", payload, 4 + i * 4)[0]
            for i in range((len(payload) - 4) // 4)
        ]
        assert all(off <= window for off in offsets)

    def test_match_into_pruned_window_prefix(self):
        """Matches whose source sits right at the window's trailing edge
        survive index pruning (the bug dropped them wholesale)."""
        codec = LZ77Codec(window_size=128, max_candidates=2)
        probe = b"SIGNATURE!"
        data = probe + bytes(range(100)) + probe + bytes(range(100, 200)) + probe
        assert codec.decode(codec.encode(data)) == data
        assert codec.decode(codec.encode_bytewise(data)) == data


def _pool_grain(elements: int = 1):
    """Lower the thread fan-out grain so the tiny blocks here cross threads.

    The blocks these tests use (12^2, 16^2) are far below the production
    grain and would run inline; the contracts under test — shared
    codebook, adaptive choice, rANS tables and the ``decoded`` memo under
    *concurrent* block tasks — need the thread backend to really fan out.
    """
    return mock.patch.object(sz_pipeline, "_POOL_GRAIN_ELEMENTS", elements)


def _compress_blob_bytes(
    backend: str,
    shared: bool,
    adaptive: bool = False,
    entropy: str = None,
    block_policy=None,
    pool_grain: int = 1,
) -> bytes:
    rng = np.random.default_rng(7)
    data = np.cumsum(rng.normal(size=(48, 48)), axis=1).astype(np.float64)
    executor = ParallelExecutor(block_workers=2, worker_backend=backend)
    compressor = create_blocked_compressor(
        "sz3",
        block_shape=16,
        block_executor=executor.map_blocks,
        adaptive_predictor=adaptive,
        shared_codebook=shared,
        entropy_stage=entropy,
        block_policy=block_policy,
    )
    with _pool_grain(pool_grain):
        result = compressor.compress(data, ErrorBound.relative(1e-3))
        recon = compressor.decompress(result.blob)
    assert np.isfinite(recon).all()
    return result.blob.to_bytes()


class TestProcessPoolEquivalence:
    @pytest.mark.parametrize("shared", [True, False], ids=["shared", "per-block"])
    def test_process_blobs_byte_identical_to_thread_blobs(self, shared):
        assert _compress_blob_bytes("process", shared) == _compress_blob_bytes(
            "thread", shared
        )

    def test_adaptive_mode_byte_identical(self):
        assert _compress_blob_bytes(
            "process", shared=True, adaptive=True
        ) == _compress_blob_bytes("thread", shared=True, adaptive=True)

    def test_invalid_backend_rejected(self):
        with pytest.raises(ConfigurationError):
            ParallelExecutor(worker_backend="greenlet")

    def test_process_backend_reaches_the_pool_below_the_thread_grain(self, monkeypatch):
        """16^2 blocks are far below the grain that keeps *threads* idle;
        the explicit process backend must still be handed them."""
        forked = _spy_on_forked_map(monkeypatch)
        grain = sz_pipeline._POOL_GRAIN_ELEMENTS
        assert grain > 16 * 16
        _compress_blob_bytes("process", shared=True, pool_grain=grain)
        _compress_blob_bytes("thread", shared=True, pool_grain=grain)
        assert forked == [9, 9]  # choose + finish of the process blob only

    @pytest.mark.parametrize("adaptive", [False, True], ids=["fixed", "adaptive"])
    def test_thread_side_of_these_comparisons_crosses_threads(self, monkeypatch, adaptive):
        """The thread blobs above come from a real fan-out, not the inline
        path: every blocked phase of compress and decompress reaches
        ``map_blocks`` with all nine blocks."""
        fanned = []
        real = ParallelExecutor.map_blocks

        def spy(self, func, items):
            fanned.append(len(items))
            return real(self, func, items)

        monkeypatch.setattr(ParallelExecutor, "map_blocks", spy)
        _compress_blob_bytes("thread", shared=True, adaptive=adaptive)
        assert fanned == [9, 9, 9]  # choose + finish, then decode

    def test_stage_timings_collection_still_byte_identical(self):
        rng = np.random.default_rng(7)
        data = np.cumsum(rng.normal(size=(48, 48)), axis=1).astype(np.float64)
        compressor = create_blocked_compressor("sz3", block_shape=16)
        baseline = compressor.compress(data, ErrorBound.relative(1e-3)).blob
        compressor.collect_stage_timings = True
        timed = compressor.compress(data, ErrorBound.relative(1e-3)).blob
        timings = compressor.last_stage_timings
        assert timings is not None
        assert set(timings) == {"predict_quantize_s", "entropy_s", "lossless_s"}
        assert timings["predict_quantize_s"] > 0
        # The timings ride in mutable metadata; the compressed sections
        # themselves must be unaffected by collection.
        assert timed.metadata.pop("stage_timings") == timings
        assert timed.to_bytes() == baseline.to_bytes()


def _spy_on_forked_map(monkeypatch) -> list:
    """Record the item count of every ``ParallelExecutor.forked_map`` call."""
    calls = []
    real = ParallelExecutor.forked_map

    def spy(self, func, items):
        calls.append(len(items))
        return real(self, func, items)

    monkeypatch.setattr(ParallelExecutor, "forked_map", spy)
    return calls


class _BrokenPolicy:
    """A block policy whose model always fails."""

    chooses_entropy = True

    def choose_for_block(self, block, error_bound_abs, compressor=None):
        raise ValueError("feature mismatch")

    choose_entropy_for_block = choose_for_block


class TestForkedMapContract:
    """``worker_backend="process"`` is the executor's forked map and nothing else."""

    def test_item_order_kept_and_closures_cross_the_fork(self):
        executor = ParallelExecutor(block_workers=2, worker_backend="process")
        base = 100
        pids = set()

        def work(item):
            pids.add(os.getpid())  # dies with the worker
            return base + item, os.getpid()

        out = executor.forked_map(work, list(range(16)))
        assert [value for value, _ in out] == [100 + i for i in range(16)]
        assert os.getpid() not in {pid for _, pid in out}
        assert not pids

    def test_worker_exceptions_are_raised_in_the_parent(self):
        executor = ParallelExecutor(block_workers=2, worker_backend="process")
        with pytest.raises(ZeroDivisionError):
            executor.forked_map(lambda item: 1 // item, [1, 0, 2])

    def test_no_fork_start_method_is_a_configuration_error(self, monkeypatch):
        monkeypatch.setattr(
            multiprocessing, "get_all_start_methods", lambda: ["spawn"]
        )
        with pytest.raises(ConfigurationError, match="fork"):
            ParallelExecutor(block_workers=2, worker_backend="process")
        ParallelExecutor(block_workers=2, worker_backend="thread")  # unaffected

    def test_block_policy_runs_in_worker_processes(self, monkeypatch):
        """A learned policy no longer drops the process backend to threads."""
        from repro.prediction.block_policy import train_block_policy

        rng = np.random.default_rng(5)
        smooth = np.add.outer(
            np.sin(np.linspace(0, 6, 48)), np.cos(np.linspace(0, 4, 48))
        ).astype(np.float64)
        noisy = (smooth + rng.normal(0, 0.3, smooth.shape)).astype(np.float64)
        policy, _ = train_block_policy(
            [smooth, noisy], 1e-3, compressor="sz3", block_shape=16
        )
        forked = _spy_on_forked_map(monkeypatch)
        blob = _compress_blob_bytes(
            "process", shared=False, adaptive=True, block_policy=policy
        )
        assert forked == [9]
        assert blob == _compress_blob_bytes(
            "thread", shared=False, adaptive=True, block_policy=policy
        )

    @pytest.mark.parametrize("shared", [True, False], ids=["shared", "per-block"])
    def test_failing_policy_still_yields_the_thread_blob(self, shared):
        expected = _compress_blob_bytes("thread", shared, adaptive=True)
        for backend in ("thread", "process"):
            assert expected == _compress_blob_bytes(
                backend, shared, adaptive=True, block_policy=_BrokenPolicy()
            )

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_stage_timings_run_the_encode_inline(self, monkeypatch, backend):
        forked = _spy_on_forked_map(monkeypatch)
        threaded = []
        real = ParallelExecutor.map_blocks
        monkeypatch.setattr(
            ParallelExecutor,
            "map_blocks",
            lambda self, func, items: threaded.append(len(items)) or real(self, func, items),
        )
        rng = np.random.default_rng(7)
        data = np.cumsum(rng.normal(size=(48, 48)), axis=1).astype(np.float64)
        executor = ParallelExecutor(block_workers=2, worker_backend=backend)
        compressor = create_blocked_compressor(
            "sz3", block_shape=16, block_executor=executor.map_blocks
        )
        compressor.collect_stage_timings = True
        with _pool_grain():
            blob = compressor.compress(data, ErrorBound.relative(1e-3)).blob
        assert forked == [] and threaded == []
        assert compressor.last_stage_timings["entropy_s"] > 0
        blob.metadata.pop("stage_timings")
        assert blob.to_bytes() == _compress_blob_bytes(backend, shared=True)

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_block_store_is_read_and_written_in_the_parent(self, tmp_path, backend):
        """Hits and puts show up in this process's counters, so they
        happened here — a worker's would have died with it."""
        from repro.cache import BlobCache

        cache = BlobCache(str(tmp_path))
        rng = np.random.default_rng(7)
        data = np.cumsum(rng.normal(size=(48, 48)), axis=1).astype(np.float64)
        executor = ParallelExecutor(block_workers=2, worker_backend=backend)
        compressor = create_blocked_compressor(
            "sz3",
            block_shape=16,
            block_executor=executor.map_blocks,
            shared_codebook=False,
            block_cache=cache,
        )
        with _pool_grain():
            cold = compressor.compress(data, ErrorBound.relative(1e-3)).blob.to_bytes()
            assert (cache.stats.block_misses, cache.stats.puts) == (9, 9)
            warm = compressor.compress(data, ErrorBound.relative(1e-3)).blob.to_bytes()
        assert (cache.stats.block_hits, cache.stats.puts) == (9, 9)
        assert warm == cold == _compress_blob_bytes(backend, shared=False)


class TestEntropyStageEquivalence:
    """The rANS stage must not perturb the blob-determinism contract.

    Thread and process backends produce byte-identical blobs under every
    entropy stage; per-block codec selection (heuristic and learned) is
    equally deterministic; and any reader decodes any stage because the
    codec rides in each block's section tags, not in reader config.
    """

    @pytest.mark.parametrize("shared", [True, False], ids=["shared", "per-block"])
    @pytest.mark.parametrize("entropy", ["huffman", "rans", "none"])
    def test_thread_process_byte_identical_per_stage(self, entropy, shared):
        assert _compress_blob_bytes(
            "process", shared, entropy=entropy
        ) == _compress_blob_bytes("thread", shared, entropy=entropy)

    @pytest.mark.parametrize("entropy", ["huffman", "rans"])
    def test_heuristic_mixed_codec_byte_identical(self, entropy):
        """Adaptive mode turns on the per-block codec heuristic, so a
        single blob can mix huffman and rans sections; workers must make
        the same choices the thread path does."""
        assert _compress_blob_bytes(
            "process", shared=False, adaptive=True, entropy=entropy
        ) == _compress_blob_bytes("thread", shared=False, adaptive=True, entropy=entropy)

    def test_policy_chosen_codecs_byte_identical(self):
        from repro.compression import CompressedBlob
        from repro.prediction.block_policy import train_block_policy

        rng = np.random.default_rng(5)
        smooth = np.add.outer(
            np.sin(np.linspace(0, 6, 48)), np.cos(np.linspace(0, 4, 48))
        ).astype(np.float64)
        noisy = (smooth + rng.normal(0, 0.3, smooth.shape)).astype(np.float64)
        policy, _ = train_block_policy(
            [smooth, noisy], 1e-3, compressor="sz3", block_shape=16
        )
        assert policy.chooses_entropy
        blobs = {
            backend: _compress_blob_bytes(
                backend, shared=False, adaptive=True, entropy="rans", block_policy=policy
            )
            for backend in ("thread", "process")
        }
        assert blobs["thread"] == blobs["process"]
        # The policy-tagged blob must decode exactly on a policy-less reader.
        reader = create_blocked_compressor("sz3")
        recon = reader.decompress(CompressedBlob.from_bytes(blobs["thread"]))
        assert np.isfinite(recon).all()

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


class TestEntropyStageRoundTrip:
    """Every registry pipeline round-trips under every entropy stage."""

    @_SETTINGS
    @given(
        entropy=st.sampled_from(["huffman", "rans", "none"]),
        name=st.sampled_from(
            ["sz3", "sz3-linear", "sz2", "sz-lorenzo", "zfp-like", "sz3-fast"]
        ),
        backend=st.sampled_from(["thread", "process"]),
        seed=st.integers(0, 1000),
    )
    def test_every_pipeline_round_trips_under_every_stage(
        self, entropy, name, backend, seed
    ):
        rng = np.random.default_rng(seed)
        data = np.cumsum(rng.normal(size=(24, 24)), axis=0).astype(np.float32)
        executor = ParallelExecutor(block_workers=2, worker_backend=backend)
        compressor = create_blocked_compressor(
            name,
            block_shape=12,
            block_executor=executor.map_blocks,
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
