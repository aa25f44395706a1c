"""Codec throughput harness: Huffman, rANS, LZ77 and full-pipeline MB/s.

Ocelot's pitch is that compression makes WAN transfer faster *end to
end*, which makes the compressor's own throughput the product.  This
benchmark measures the entropy-coding core on representative
quantiser-code distributions and pins the perf trajectory:

* the table-driven Huffman decoder must beat the seed per-bit decoder
  (kept as ``HuffmanCodec.decode_bitloop``) by >= 5x on a 1M-symbol
  stream, and by >= 8x on a 32 768-symbol stream — one 32^3 block, the
  size the blocked pipeline actually decodes (the per-symbol LUT walk
  this floor replaced managed 6-11x there);
* the interleaved rANS decoder must hold the gate PR 9 set — 2x the
  Huffman LUT decoder of that day — expressed against the anchor no
  decoder PR moves: >= 20x ``decode_bitloop`` measured in the same run
  (that LUT ran 10x the bit loop), at a comparable (usually better)
  compression ratio; the rANS/LUT ratio is still recorded;
* the vectorised LZ77 encoder must beat the seed bytewise encoder (kept
  as ``LZ77Codec.encode_bytewise``) by >= 10x on the structured corpus,
  with decode-identical output — so the *encode* trendline is regressed
  the same way decode's is;
* the pipeline rows honour ``OCELOT_WORKER_BACKEND`` (``thread`` /
  ``process``) and ``OCELOT_ENTROPY`` (``huffman`` / ``rans``) so CI
  measures both block-worker backends and both entropy codecs, and the
  shared-codebook compress row must clear a per-stage absolute floor —
  11.25 MB/s for huffman (1.5x the 7.5 MB/s this harness recorded
  before the predictor plan cache landed);
* every measurement is written to ``BENCH_codec.json`` next to this
  file, so future PRs have a trajectory to regress against (CI uploads
  one artifact per worker backend / entropy codec combination).
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).parent))

from common import print_table  # noqa: E402

from repro.compression import ErrorBound, create_blocked_compressor  # noqa: E402
from repro.compression.encoders.huffman import (  # noqa: E402
    MAX_CODE_LENGTH,
    HuffmanCodebook,
    HuffmanCodec,
    _pack_codes,
    _pack_codes_16,
    symbol_frequencies,
)
from repro.compression.encoders.lz77 import LZ77Codec  # noqa: E402
from repro.compression.encoders.rans import RansCodec  # noqa: E402
from repro.core.parallel import ParallelExecutor  # noqa: E402

BENCH_JSON = Path(__file__).parent / "BENCH_codec.json"

#: The decode-speedup floor the tentpole must hold on a 1M-symbol stream.
MIN_DECODE_SPEEDUP = 5.0

#: The same floor at block size (32^3 = 32 768 symbols), where one-off
#: costs are not amortised.  A quiet machine sees 12-18x.
MIN_BLOCK_DECODE_SPEEDUP = 8.0

#: Vectorised LZ77 encode vs the retained bytewise encoder.  The floor is
#: relative (the absolute MB/s on a throttled CI runner swings 2x), and
#: far below the ~80x a quiet machine measures — it trips on a real
#: regression, not on noise.
MIN_ENCODE_SPEEDUP = 10.0

#: Interleaved rANS decode floor: 2x the Huffman LUT decoder, as PR 9
#: set it.  The LUT decoder it was set against ran 8-10x the per-bit
#: loop (``RANS_GATE_LUT_SPEEDUP``) and has since been made faster, so
#: comparing against today's LUT would loosen or tighten this gate with
#: every Huffman change.  The gate is therefore held against the bit
#: loop measured in the same run (runner throttling cancels out): rANS
#: >= 2 x 10 = 20x ``decode_bitloop``.  rANS measured 34x / 57x / 69x
#: (skewed / moderate / tight) when the gate was written, i.e. 1.7x
#: headroom at the tightest point — the same 1.65x the original
#: comparison had (3.3x measured against the 2x floor).
MIN_RANS_DECODE_SPEEDUP = 2.0
RANS_GATE_LUT_SPEEDUP = 10.0

#: Absolute shared-codebook pipeline compress floors per entropy stage.
#: Huffman (the default) must hold 1.5x the 7.5 MB/s this harness
#: recorded before the predictor pass-plan cache (a quiet machine now
#: measures ~19 MB/s, leaving slack for throttled runners).  The rANS
#: stage pays real per-block costs at 64^2-symbol granularity — 4
#: bytes/lane of interleave state and a Python-level round loop the
#: Huffman packer does not have — so its end-to-end floor only guards
#: against catastrophic regression; its headline wins are stream-level
#: decode throughput (see MIN_RANS_DECODE_SPEEDUP) and the compact
#: frequency table, with the per-block policy choosing where it pays.
MIN_PIPELINE_COMPRESS_MBPS = {"huffman": 11.25, "rans": 5.0}

#: Block-worker backend and entropy codec the pipeline rows run under
#: (CI sets both to cover the matrix).
WORKER_BACKEND = os.environ.get("OCELOT_WORKER_BACKEND", "thread")
ENTROPY_STAGE = os.environ.get("OCELOT_ENTROPY", "huffman")

_RESULTS: dict = {}


def _mbps(nbytes: int, seconds: float) -> float:
    return nbytes / 1e6 / max(seconds, 1e-12)


def _time(fn, repeats: int = 3) -> float:
    """Best-of-N wall time (first call may pay one-off table builds)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def quantiser_stream(n: int, scale: float, seed: int = 0) -> np.ndarray:
    """A Laplacian-distributed quantisation-bin stream.

    Prediction residuals quantise to two-sided geometric/Laplacian bins
    centred on zero; ``scale`` controls how tight the error bound is
    (small scale = skewed stream, large scale = spread stream).
    """
    rng = np.random.default_rng(seed)
    return np.clip(np.round(rng.laplace(0.0, scale, n)), -2000, 2000).astype(np.int64)


class TestHuffmanThroughput:
    def test_lut_decode_beats_seed_bitloop_by_5x(self):
        """Table-driven decode >= 5x the seed per-bit decoder (1M symbols)."""
        codec = HuffmanCodec()
        rows = []
        huffman_results = {}
        for label, scale in [("skewed eb", 0.8), ("moderate eb", 3.0), ("tight eb", 12.0)]:
            symbols = quantiser_stream(1_000_000, scale)
            stream_bytes = symbols.nbytes

            encode_s = _time(lambda: codec.encode(symbols))
            payload, codebook, count = codec.encode(symbols)

            decoded = codec.decode(payload, codebook, count)
            np.testing.assert_array_equal(decoded, symbols)
            decode_s = _time(lambda: codec.decode(payload, codebook, count))
            bitloop_s = _time(lambda: codec.decode_bitloop(payload, codebook, count), repeats=1)
            speedup = bitloop_s / decode_s

            # Encode fast path: the fused bincount-OR packer (codes <= 16
            # bits) vs the retained general chunked packer, on identical
            # per-symbol (code, length) streams.
            book = HuffmanCodebook.from_frequencies(
                symbol_frequencies(symbols), max_length=MAX_CODE_LENGTH
            )
            codes, lens = book.lookup(symbols)
            assert bytes(_pack_codes_16(codes, lens)) == bytes(_pack_codes(codes, lens))
            fast_s = _time(lambda: _pack_codes_16(codes, lens))
            slow_s = _time(lambda: _pack_codes(codes, lens))
            encode_speedup = slow_s / fast_s

            rows.append(
                {
                    "distribution": label,
                    "encode MB/s": _mbps(stream_bytes, encode_s),
                    "pack speedup": encode_speedup,
                    "decode MB/s": _mbps(stream_bytes, decode_s),
                    "seed decode MB/s": _mbps(stream_bytes, bitloop_s),
                    "speedup": speedup,
                    "ratio": stream_bytes / len(payload),
                }
            )
            huffman_results[label] = {
                "symbols": int(count),
                "stream_bytes": int(stream_bytes),
                "payload_bytes": len(payload),
                "encode_MBps": round(_mbps(stream_bytes, encode_s), 2),
                "encode_speedup": round(encode_speedup, 2),
                "decode_MBps": round(_mbps(stream_bytes, decode_s), 2),
                "seed_decode_MBps": round(_mbps(stream_bytes, bitloop_s), 2),
                "decode_speedup": round(speedup, 2),
            }
            # The fused packer's edge shrinks on very skewed streams
            # (fewer payload bytes to pack); 0.8 tolerates runner noise
            # while still tripping on a real fast-path regression.
            assert encode_speedup >= 0.8, (
                f"{label}: fused packer materially slower than the "
                f"general packer ({encode_speedup:.2f}x)"
            )
        print_table("Huffman codec throughput (1M-symbol quantiser streams)", rows)
        _RESULTS["huffman"] = huffman_results
        for row in rows:
            assert row["speedup"] >= MIN_DECODE_SPEEDUP, (
                f"{row['distribution']}: table-driven decode only "
                f"{row['speedup']:.1f}x the seed per-bit decoder"
            )

    def test_block_sized_decode_beats_seed_bitloop_by_8x(self):
        """The same comparison at the size the pipeline decodes: one 32^3 block."""
        codec = HuffmanCodec()
        rows = []
        block_results = {}
        for label, scale in [("skewed eb", 0.8), ("tight eb", 12.0)]:
            symbols = quantiser_stream(32_768, scale)
            payload, codebook, count = codec.encode(symbols)
            np.testing.assert_array_equal(codec.decode(payload, codebook, count), symbols)
            decode_s = _time(lambda: codec.decode(payload, codebook, count), repeats=9)
            bitloop_s = _time(lambda: codec.decode_bitloop(payload, codebook, count))
            rows.append(
                {
                    "distribution": label,
                    "bits/symbol": 8 * len(payload) / count,
                    "decode ms": decode_s * 1e3,
                    "decode MB/s": _mbps(symbols.nbytes, decode_s),
                    "speedup": bitloop_s / decode_s,
                }
            )
            block_results[label] = {
                "symbols": int(count),
                "decode_MBps": round(_mbps(symbols.nbytes, decode_s), 2),
                "decode_speedup": round(bitloop_s / decode_s, 2),
            }
        print_table("Huffman decode of one 32^3 block (32 768 symbols)", rows)
        _RESULTS["huffman_block"] = block_results
        for row in rows:
            assert row["speedup"] >= MIN_BLOCK_DECODE_SPEEDUP, (
                f"{row['distribution']}: block-sized decode only "
                f"{row['speedup']:.1f}x the seed per-bit decoder"
            )

    def test_shared_codebook_amortises_encode(self):
        """Encoding blocks against a shared book skips per-block rebuilds."""
        from repro.compression.encoders.huffman import (
            MAX_CODE_LENGTH,
            HuffmanCodebook,
            symbol_frequencies,
        )

        stream = quantiser_stream(1_000_000, 2.0, seed=1)
        blocks = np.array_split(stream, 64)
        codec = HuffmanCodec()

        per_block_s = _time(lambda: [codec.encode(block) for block in blocks])

        def shared():
            frequencies = symbol_frequencies(stream)
            book = HuffmanCodebook.from_frequencies(frequencies, max_length=MAX_CODE_LENGTH)
            return [codec.encode_with_book(block, book) for block in blocks]

        shared_s = _time(shared)
        assert all(payload is not None for payload in shared())
        _RESULTS["shared_codebook"] = {
            "blocks": len(blocks),
            "per_block_encode_MBps": round(_mbps(stream.nbytes, per_block_s), 2),
            "shared_encode_MBps": round(_mbps(stream.nbytes, shared_s), 2),
        }
        print_table(
            "Shared vs per-block codebook encode (64 blocks)",
            [
                {
                    "mode": "per-block books",
                    "MB/s": _mbps(stream.nbytes, per_block_s),
                },
                {"mode": "shared book", "MB/s": _mbps(stream.nbytes, shared_s)},
            ],
        )


class TestRansThroughput:
    def test_rans_decode_beats_huffman_lut_by_2x(self):
        """Interleaved rANS decode >= 2x the Huffman LUT decode PR 9 measured.

        That LUT ran 10x ``decode_bitloop``, so the gate reads rANS >=
        20x the bit loop — an anchor Huffman decoder work does not move
        (see ``MIN_RANS_DECODE_SPEEDUP``).  Everything runs on the same
        streams in the same process, so the comparison is immune to
        absolute runner speed.  The payloads must
        also stay within a few percent of Huffman's (rANS's fractional-bit
        packing usually wins; its 6-byte/symbol table always undercuts the
        16-byte/symbol codebook).
        """
        huffman = HuffmanCodec()
        rans = RansCodec()
        rows = []
        rans_results = {}
        for label, scale in [("skewed eb", 0.8), ("moderate eb", 3.0), ("tight eb", 12.0)]:
            symbols = quantiser_stream(1_000_000, scale)
            stream_bytes = symbols.nbytes

            encode_s = _time(lambda: rans.encode(symbols))
            payload, table_bytes, count = rans.encode(symbols)
            decoded = rans.decode(payload, table_bytes, count)
            np.testing.assert_array_equal(decoded, symbols)
            decode_s = _time(lambda: rans.decode(payload, table_bytes, count))

            h_payload, h_book, h_count = huffman.encode(symbols)
            h_decode_s = _time(lambda: huffman.decode(h_payload, h_book, h_count))
            speedup = h_decode_s / decode_s
            bitloop_s = _time(
                lambda: huffman.decode_bitloop(h_payload, h_book, h_count), repeats=1
            )

            rans_bytes = len(payload) + len(table_bytes)
            rows.append(
                {
                    "distribution": label,
                    "encode MB/s": _mbps(stream_bytes, encode_s),
                    "decode MB/s": _mbps(stream_bytes, decode_s),
                    "huffman decode MB/s": _mbps(stream_bytes, h_decode_s),
                    "speedup": speedup,
                    "vs bit loop": bitloop_s / decode_s,
                    "bytes vs huffman": rans_bytes / len(h_payload),
                }
            )
            rans_results[label] = {
                "symbols": int(count),
                "stream_bytes": int(stream_bytes),
                "payload_bytes": len(payload),
                "table_bytes": len(table_bytes),
                "encode_MBps": round(_mbps(stream_bytes, encode_s), 2),
                "decode_MBps": round(_mbps(stream_bytes, decode_s), 2),
                "huffman_decode_MBps": round(_mbps(stream_bytes, h_decode_s), 2),
                "decode_speedup_vs_huffman": round(speedup, 2),
                "decode_speedup_vs_bitloop": round(bitloop_s / decode_s, 2),
                "bytes_vs_huffman": round(rans_bytes / len(h_payload), 4),
            }
        print_table("rANS codec throughput (1M-symbol quantiser streams)", rows)
        _RESULTS["rans"] = rans_results
        for row in rows:
            floor = MIN_RANS_DECODE_SPEEDUP * RANS_GATE_LUT_SPEEDUP
            assert row["vs bit loop"] >= floor, (
                f"{row['distribution']}: rANS decode only {row['vs bit loop']:.1f}x "
                f"the per-bit Huffman decoder (floor {floor:.0f}x = "
                f"{MIN_RANS_DECODE_SPEEDUP}x a {RANS_GATE_LUT_SPEEDUP:.0f}x LUT)"
            )
            assert row["bytes vs huffman"] <= 1.05, (
                f"{row['distribution']}: rANS output {row['bytes vs huffman']:.3f}x "
                f"the Huffman payload — the fractional-bit packing regressed"
            )


def lz77_corpus(units: int = 400, seed: int = 2) -> bytes:
    """Structured serialised-block corpus: header + noise + runs, repeated.

    The repetition across units gives the encoder real cross-unit matches
    (as serialised quantiser blocks of one file do); the noise span keeps
    it from degenerating into a single run.
    """
    rng = np.random.default_rng(seed)
    unit = (
        b"field header "
        + bytes(rng.integers(0, 12, 400, dtype=np.uint8))
        + b"run" * 300
    )
    return unit * units


class TestLZ77Throughput:
    def test_vectorised_encode_and_decode(self):
        """Vectorised encode >= 10x bytewise, decode output unchanged."""
        data = lz77_corpus()
        codec = LZ77Codec()
        encode_s = _time(lambda: codec.encode(data))
        payload = codec.encode(data)
        assert codec.decode(payload) == data
        decode_s = _time(lambda: codec.decode(payload))

        # The bytewise reference crawls (~0.5 MB/s), so the head-to-head
        # runs on a prefix; the speedup assertion is *relative*, which
        # holds still when a throttled CI runner halves every absolute
        # number.
        prefix = data[: 1 << 16]
        bytewise_s = _time(lambda: codec.encode_bytewise(prefix), repeats=1)
        vector_prefix_s = _time(lambda: codec.encode(prefix))
        bytewise_payload = codec.encode_bytewise(prefix)
        assert codec.decode(bytewise_payload) == prefix
        assert codec.decode(codec.encode(prefix)) == prefix
        encode_speedup = bytewise_s / vector_prefix_s

        _RESULTS["lz77"] = {
            "input_bytes": len(data),
            "token_bytes": len(payload),
            "encode_MBps": round(_mbps(len(data), encode_s), 3),
            "bytewise_encode_MBps": round(_mbps(len(prefix), bytewise_s), 3),
            "encode_speedup": round(encode_speedup, 2),
            "decode_MBps": round(_mbps(len(data), decode_s), 2),
        }
        print_table(
            "LZ77 throughput (structured 513 KiB corpus)",
            [
                {"direction": "encode", "MB/s": _mbps(len(data), encode_s)},
                {
                    "direction": "encode (seed bytewise, 64 KiB)",
                    "MB/s": _mbps(len(prefix), bytewise_s),
                },
                {"direction": "decode", "MB/s": _mbps(len(data), decode_s)},
            ],
        )
        assert encode_speedup >= MIN_ENCODE_SPEEDUP, (
            f"vectorised LZ77 encode only {encode_speedup:.1f}x the seed "
            f"bytewise encoder (floor {MIN_ENCODE_SPEEDUP}x)"
        )


class TestPipelineThroughput:
    def test_full_pipeline_and_write_bench_json(self):
        """Blocked sz3 pipeline MB/s, then persist BENCH_codec.json."""
        x = np.linspace(0, 6 * np.pi, 384)
        rng = np.random.default_rng(3)
        field = (
            np.sin(x)[:, None] * np.cos(x)[None, :]
            + rng.normal(0, 0.01, (384, 384))
        ).astype(np.float32)
        bound = ErrorBound(value=1e-3, mode="abs")
        rows = []
        pipeline_results = {}
        executor = ParallelExecutor(
            block_workers=min(4, os.cpu_count() or 1), worker_backend=WORKER_BACKEND
        )
        for label, shared in [("shared codebook", True), ("per-block codebooks", False)]:
            compressor = create_blocked_compressor(
                "sz3",
                block_shape=64,
                shared_codebook=shared,
                block_executor=executor.map_blocks,
                entropy_stage=ENTROPY_STAGE,
            )
            result = compressor.compress(field, bound)
            # Best-of-5: the compress row carries a CI floor, and a
            # single sample taken while a co-tenant burns the CPU quota
            # reads 30-40% low.  Five ~50ms samples reliably catch one
            # quiet window without materially lengthening the bench.
            compress_s = _time(lambda: compressor.compress(field, bound), repeats=5)
            blob = result.blob
            decompress_s = _time(lambda: compressor.decompress(blob), repeats=2)
            recon = compressor.decompress(blob)
            assert np.abs(recon.astype(np.float64) - field).max() <= 1e-3 * 1.01
            rows.append(
                {
                    "mode": label,
                    "compress MB/s": _mbps(field.nbytes, compress_s),
                    "decompress MB/s": _mbps(field.nbytes, decompress_s),
                    "blob bytes": blob.nbytes,
                }
            )
            pipeline_results[label] = {
                "field_bytes": int(field.nbytes),
                "blob_bytes": int(blob.nbytes),
                "compress_MBps": round(_mbps(field.nbytes, compress_s), 2),
                "decompress_MBps": round(_mbps(field.nbytes, decompress_s), 2),
            }
        pipeline_results["worker_backend"] = WORKER_BACKEND
        pipeline_results["entropy_stage"] = ENTROPY_STAGE
        print_table(
            f"sz3 pipeline throughput (384x384 float32, blocked 64, "
            f"{WORKER_BACKEND} workers, {ENTROPY_STAGE} entropy)",
            rows,
        )
        shared_bytes = pipeline_results["shared codebook"]["blob_bytes"]
        per_block_bytes = pipeline_results["per-block codebooks"]["blob_bytes"]
        assert shared_bytes < per_block_bytes, (
            "shared-codebook blob should be smaller than the per-block layout"
        )
        shared_mbps = pipeline_results["shared codebook"]["compress_MBps"]
        floor = MIN_PIPELINE_COMPRESS_MBPS[ENTROPY_STAGE]
        if shared_mbps < floor:
            # One settle-and-retry before failing: earlier suite items
            # (the cache and scaling benches) can leave the host's CPU
            # budget drained right as this row samples.
            time.sleep(1.0)
            compressor = create_blocked_compressor(
                "sz3",
                block_shape=64,
                shared_codebook=True,
                block_executor=executor.map_blocks,
                entropy_stage=ENTROPY_STAGE,
            )
            retry_s = _time(lambda: compressor.compress(field, bound), repeats=5)
            shared_mbps = round(_mbps(field.nbytes, retry_s), 2)
            if shared_mbps > pipeline_results["shared codebook"]["compress_MBps"]:
                pipeline_results["shared codebook"]["compress_MBps"] = shared_mbps
        assert shared_mbps >= floor, (
            f"shared-codebook pipeline compress at {shared_mbps:.2f} MB/s is "
            f"below the {floor} MB/s floor for the {ENTROPY_STAGE} stage"
        )
        _RESULTS["pipeline"] = pipeline_results

        payload = {
            "min_decode_speedup": MIN_DECODE_SPEEDUP,
            "min_block_decode_speedup": MIN_BLOCK_DECODE_SPEEDUP,
            "min_encode_speedup": MIN_ENCODE_SPEEDUP,
            "min_rans_decode_speedup": MIN_RANS_DECODE_SPEEDUP,
            "rans_gate_lut_speedup": RANS_GATE_LUT_SPEEDUP,
            "min_pipeline_compress_MBps": MIN_PIPELINE_COMPRESS_MBPS,
            "worker_backend": WORKER_BACKEND,
            "entropy_stage": ENTROPY_STAGE,
            **_RESULTS,
        }
        BENCH_JSON.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"\nwrote {BENCH_JSON}")
        assert BENCH_JSON.exists()
