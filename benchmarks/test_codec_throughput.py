"""Codec kernels against their in-tree references: Huffman and rANS.

Ocelot's pitch is that compression makes WAN transfer faster *end to
end*, which makes the compressor's own throughput the product.  This
benchmark holds the entropy-coding kernels against the reference
implementations ``src/`` keeps for exactly that purpose — code no PR is
meant to speed up, timed in the same test on the same streams, so
runner speed cancels:

* (R) the table-driven Huffman decoder vs the seed per-bit decoder
  ``HuffmanCodec.decode_bitloop``: >= 5x on a 1M-symbol stream and >= 8x
  on a 32 768-symbol stream — one 32^3 block, the size the blocked
  pipeline actually decodes;
* (R) the lockstep lane decoder vs the in-tree pointer-jumping decoder on
  a file-shaped batch (18 streams of 32 768 symbols, one shared book,
  ~7 bits/symbol): >= 2x; (D) the sync index it needs costs <= 1 % of
  the payload bytes at that entropy and is absent at <= K symbols;
* (R) the interleaved rANS decoder vs the same ``decode_bitloop``:
  >= 20x (the gate PR 9 set as 2x a Huffman LUT that ran 10x the bit
  loop, restated against the anchor Huffman work does not move), at a
  payload within 5 % of Huffman's;
* (R) one Miranda file's 18 rANS block streams (32^3 symbols, a table
  each) decoded as one lockstep batch vs one stream at a time: >= 2x;
  and encoded so, byte-identical to one stream at a time: >= 1.4x;
* (R) the pair-merged <= 16-bit code writer vs the general reference
  packer ``_pack_codes`` on a file's 18 block streams under four symbol
  distributions: byte-identical, and >= 4x;
* (D) a shared codebook costs fewer bytes than per-block books, on
  a raw symbol stream and through the blocked sz3 pipeline under both
  entropy stages, with the error bound held.

Where a gate compares two calls, they are timed interleaved: round after
round, one call of each, and the minimum of each side, so both minima
come from the same stretch of a shared box.

Each floor states the headroom measured on the 2-core build box (median
reading / floor, >= 1.5x).  Absolute MB/s — kernels and pipeline — are
``bench/``'s: ``huffman.*_MBps``, ``rans.*_MBps``, ``lossless.*_MBps``,
``pipeline.compress_MBps`` / ``pipeline.decompress_MBps``.
"""

from __future__ import annotations

import numpy as np

from common import best_of, print_table

from repro.compression import ErrorBound, create_blocked_compressor
from repro.compression.encoders.huffman import (
    MAX_CODE_LENGTH,
    SYNC_INTERVAL,
    HuffmanCodebook,
    HuffmanCodec,
    HuffmanStream,
    _pack_codes,
    _pack_codes_16,
    pooled_symbol_frequencies,
    symbol_frequencies,
)
from repro.compression.encoders.rans import RansCodec, RansFrequencyTable
from repro.compression.predictors.interpolation import InterpolationPredictor
from repro.datasets import generate_field

#: LUT decode vs ``decode_bitloop`` on a 1M-symbol stream.  Measured
#: 23x / 30x / 31x (skewed / moderate / tight, medians of 10 runs; 25x /
#: 27x / 30x with ``bench/run.py`` looping beside it): 4.6x headroom.
MIN_DECODE_SPEEDUP = 5.0

#: The same at block size (32^3 = 32 768 symbols), where one-off costs
#: are not amortised.  Measured 22x / 29x (20x / 28x loaded): 2.5x headroom.
MIN_BLOCK_DECODE_SPEEDUP = 8.0

#: Lockstep lanes vs pointer jumping on one file's worth of streams (18 x
#: 32^3 symbols, one shared book, 7.1 bits/symbol; 2304 lanes).  Measured
#: 5.3x-7.2x over 9 quiet runs (6.0x-9.0x in 4 runs with ``bench/run.py
#: --quick`` looping beside it): 2.6x headroom at the lowest reading.
MIN_LOCKSTEP_SPEEDUP = 2.0

#: Interleaved rANS decode vs ``decode_bitloop``: 2x the Huffman LUT
#: decoder, as PR 9 set it.  The LUT it was set against ran 10x the
#: per-bit loop and has since been made faster, so comparing against
#: today's LUT would loosen or tighten this gate with every Huffman
#: change; it is held against the bit loop instead: 2 x 10 = 20x.
#: Measured 39x / 60x / 97x (35x / 59x / 99x loaded; lowest of 16
#: skewed readings 29.8x): 1.7x headroom at the tightest point — the same
#: the original comparison had (3.3x measured against the 2x floor).
MIN_RANS_DECODE_SPEEDUP = 2.0
RANS_GATE_LUT_SPEEDUP = 10.0

#: One lockstep batch vs one call per stream on a file's rANS block
#: streams (18 x 32^3 symbols, 18 tables).  Measured 2.85x-3.1x over 3
#: runs: 1.4x headroom at the lowest reading.  Timed as two separate
#: best-of runs it read 1.9x in two of four loaded tier-1 runs, on
#: unchanged rANS code.  Timed interleaved it read 2.8x-3.0x over 9 runs,
#: and a "batch" that decodes one stream at a time reads 1.0x.
MIN_RANS_BATCH_SPEEDUP = 2.0

#: The <= 16-bit pair writer ``_pack_codes_16`` vs the general reference
#: packer ``_pack_codes`` on a file's 18 block streams, one shared book.
#: Over 9 runs the writer read 5.3x-6.4x on the skewed streams (median
#: 6.3x, the lowest distribution) and 6.8x-10.2x on the others.  The
#: three-bincount byte writer it replaced read 2.7x-4.5x under the same
#: timing, 3.1x at most on the skewed streams, so it fails this floor:
#: 1.5x headroom at the skewed median.
MIN_PAIR_WRITER_SPEEDUP = 4.0

#: The same file's streams *encoded* as one lockstep batch vs one
#: ``encode_with_table`` call per stream.  The prototype measured
#: 1.6x-2.2x; the batch as built read 1.8x-2.9x over 11 runs, median
#: 2.15x: 1.5x headroom (1.3x at the lowest reading).
MIN_RANS_ENCODE_BATCH_SPEEDUP = 1.4


def _mbps(nbytes: int, seconds: float) -> float:
    return nbytes / 1e6 / max(seconds, 1e-12)


def interleaved_best(fns, rounds: int = 9) -> list:
    """Each of ``fns``' minimum wall seconds over ``rounds`` rounds of one call each.

    Two minima taken in separate stretches of a shared box compare the
    stretches as much as the calls; interleaving makes them neighbours.
    """
    best = [float("inf")] * len(fns)
    for _ in range(rounds):
        best = [min(b, best_of(fn, repeats=1)) for b, fn in zip(best, fns)]
    return best


def file_codes() -> list:
    """One Miranda file's 18 block code streams (32^3 blocks, interpolation)."""
    field = generate_field("miranda", "density", scale=0.25, seed=12).data
    assert field.shape == (64, 96, 96)
    eb = 1e-3 * float(field.max() - field.min())
    return [
        InterpolationPredictor().encode_block(field[i:i + 32, j:j + 32, k:k + 32], eb).codes
        for i in range(0, 64, 32) for j in range(0, 96, 32) for k in range(0, 96, 32)
    ]


def quantiser_stream(n: int, scale: float, seed: int = 0) -> np.ndarray:
    """A Laplacian-distributed quantisation-bin stream.

    Prediction residuals quantise to two-sided geometric/Laplacian bins
    centred on zero; ``scale`` controls how tight the error bound is
    (small scale = skewed stream, large scale = spread stream).
    """
    rng = np.random.default_rng(seed)
    return np.clip(np.round(rng.laplace(0.0, scale, n)), -2000, 2000).astype(np.int64)


def rans_encode(rans: RansCodec, symbols: np.ndarray) -> tuple:
    """``(payload, table_bytes, count)``: ``symbols`` coded against a table of their own."""
    table = RansFrequencyTable.try_from_frequencies(symbol_frequencies(symbols))
    return rans.encode_with_table(symbols, table), table.serialize(), int(symbols.size)


class TestHuffmanThroughput:
    def test_lut_decode_beats_seed_bitloop_by_5x(self):
        """Table-driven decode >= 5x the seed per-bit decoder (1M symbols)."""
        codec = HuffmanCodec()
        rows = []
        for label, scale in [("skewed eb", 0.8), ("moderate eb", 3.0), ("tight eb", 12.0)]:
            symbols = quantiser_stream(1_000_000, scale)
            stream_bytes = symbols.nbytes
            payload, codebook, count = codec.encode(symbols)

            decoded = codec.decode(payload, codebook, count)
            np.testing.assert_array_equal(decoded, symbols)
            decode_s = best_of(lambda: codec.decode(payload, codebook, count))
            bitloop_s = best_of(lambda: codec.decode_bitloop(payload, codebook, count), repeats=1)
            speedup = bitloop_s / decode_s

            # The <= 16-bit pair writer emits the general packer's bytes
            # on a stream of a million symbols too.
            book = HuffmanCodebook.from_frequencies(
                symbol_frequencies(symbols), max_length=MAX_CODE_LENGTH
            )
            assert bytes(codec.encode_with_book(symbols, book)) == bytes(
                _pack_codes(*book.lookup(symbols))
            )

            rows.append(
                {
                    "distribution": label,
                    "decode MB/s": _mbps(stream_bytes, decode_s),
                    "seed decode MB/s": _mbps(stream_bytes, bitloop_s),
                    "speedup": speedup,
                    "ratio": stream_bytes / len(payload),
                }
            )
        print_table("Huffman decode vs decode_bitloop (1M-symbol quantiser streams)", rows)
        for row in rows:
            assert row["speedup"] >= MIN_DECODE_SPEEDUP, (
                f"{row['distribution']}: table-driven decode only "
                f"{row['speedup']:.1f}x the seed per-bit decoder"
            )

    def test_block_sized_decode_beats_seed_bitloop_by_8x(self):
        """The same comparison at the size the pipeline decodes: one 32^3 block."""
        codec = HuffmanCodec()
        rows = []
        for label, scale in [("skewed eb", 0.8), ("tight eb", 12.0)]:
            symbols = quantiser_stream(32_768, scale)
            payload, codebook, count = codec.encode(symbols)
            np.testing.assert_array_equal(codec.decode(payload, codebook, count), symbols)
            decode_s = best_of(lambda: codec.decode(payload, codebook, count), repeats=9)
            bitloop_s = best_of(lambda: codec.decode_bitloop(payload, codebook, count))
            rows.append(
                {
                    "distribution": label,
                    "bits/symbol": 8 * len(payload) / count,
                    "decode ms": decode_s * 1e3,
                    "decode MB/s": _mbps(symbols.nbytes, decode_s),
                    "speedup": bitloop_s / decode_s,
                }
            )
        print_table("Huffman decode of one 32^3 block (32 768 symbols)", rows)
        for row in rows:
            assert row["speedup"] >= MIN_BLOCK_DECODE_SPEEDUP, (
                f"{row['distribution']}: block-sized decode only "
                f"{row['speedup']:.1f}x the seed per-bit decoder"
            )

    def test_lockstep_file_decode_beats_pointer_jumping_by_2x(self):
        """Every sync point of a file's blocks as a lane, vs one walk per block."""
        blocks = [quantiser_stream(32_768, 24.0, seed=seed) for seed in range(18)]
        book = HuffmanCodebook.from_frequencies(
            symbol_frequencies(np.concatenate(blocks)), max_length=MAX_CODE_LENGTH
        )
        codec = HuffmanCodec()
        payloads = [codec.encode_with_book(block, book) for block in blocks]
        streams = [
            HuffmanStream(bytes(payload), block.size, payload.sync, SYNC_INTERVAL)
            for payload, block in zip(payloads, blocks)
        ]
        book_bytes = book.serialize()

        def pointer_jumping():
            return [codec.decode(s.payload, book_bytes, s.count) for s in streams]

        for lanes, walked, block in zip(
            codec.decode_streams(streams, book_bytes), pointer_jumping(), blocks
        ):
            np.testing.assert_array_equal(lanes, block)
            np.testing.assert_array_equal(walked, block)
        lockstep_s = best_of(lambda: codec.decode_streams(streams, book_bytes), repeats=9)
        jumping_s = best_of(pointer_jumping, repeats=5)

        # (D) What the index costs, before the lossless stage sees it.
        payload_bytes = sum(len(s.payload) for s in streams)
        index_bytes = sum(2 * s.sync.size for s in streams)
        short = codec.encode_with_book(blocks[0][:SYNC_INTERVAL], book)
        symbol_bytes = sum(block.nbytes for block in blocks)
        print_table(
            "Huffman decode of one file: 18 blocks of 32^3 symbols, one shared book",
            [{
                "bits/symbol": 8 * payload_bytes / (18 * 32_768),
                "lanes": sum(s.sync.size + 1 for s in streams),
                "lockstep MB/s": _mbps(symbol_bytes, lockstep_s),
                "pointer-jumping MB/s": _mbps(symbol_bytes, jumping_s),
                "speedup": jumping_s / lockstep_s,
                "index / payload": index_bytes / payload_bytes,
            }],
        )
        assert all(s.sync.size == 32_768 // SYNC_INTERVAL - 1 for s in streams)
        assert index_bytes <= 0.01 * payload_bytes
        assert not hasattr(short, "sync")  # one lane: nothing to index
        assert jumping_s / lockstep_s >= MIN_LOCKSTEP_SPEEDUP, (
            f"lockstep decode only {jumping_s / lockstep_s:.1f}x pointer jumping"
        )

    def test_pair_writer_beats_reference_packer_by_4x(self):
        """A file's 18 block streams through the <= 16-bit writer and ``_pack_codes``."""
        files = {"miranda file": file_codes()}
        for label, scale in [("skewed eb", 0.8), ("moderate eb", 3.0), ("tight eb", 12.0)]:
            files[label] = [quantiser_stream(32_768, scale, seed=seed) for seed in range(18)]
        rows = []
        for label, blocks in files.items():
            book = HuffmanCodebook.from_frequencies(
                pooled_symbol_frequencies(blocks), max_length=MAX_CODE_LENGTH
            )
            lookups = [book.lookup(block) for block in blocks]
            entries = [book.entries(block, pad=block.size & 1) for block in blocks]

            def reference():
                return [_pack_codes(codes, lengths) for codes, lengths in lookups]

            def writer():
                return [_pack_codes_16(e) for e in entries]

            written = writer()
            assert [bytes(p) for p in written] == [bytes(p) for p in reference()]
            assert [p.sync.tolist() for p in written] == [p.sync.tolist() for p in reference()]
            reference_s, writer_s = interleaved_best([reference, writer])
            rows.append({
                "distribution": label,
                "bits/symbol": 8 * sum(len(p) for p in written) / (18 * 32_768),
                "reference ms": reference_s * 1e3,
                "writer ms": writer_s * 1e3,
                "speedup": reference_s / writer_s,
            })
        print_table("Huffman encode of one file: 18 blocks of 32^3 symbols, one shared book", rows)
        for row in rows:
            assert row["speedup"] >= MIN_PAIR_WRITER_SPEEDUP, (
                f"{row['distribution']}: the pair writer only {row['speedup']:.1f}x "
                f"the reference packer"
            )

    def test_shared_codebook_amortises_encode(self):
        """(D) One file-wide book costs fewer bytes than a book per block."""
        stream = quantiser_stream(1_000_000, 2.0, seed=1)
        blocks = np.array_split(stream, 64)
        codec = HuffmanCodec()

        per_block = [codec.encode(block) for block in blocks]
        per_block_payload = sum(len(payload) for payload, _, _ in per_block)
        per_block_books = sum(len(book) for _, book, _ in per_block)

        book = HuffmanCodebook.from_frequencies(
            symbol_frequencies(stream), max_length=MAX_CODE_LENGTH
        )
        shared = [codec.encode_with_book(block, book) for block in blocks]
        assert all(payload is not None for payload in shared)
        book_bytes = book.serialize()
        for block, payload in zip(blocks, shared):
            np.testing.assert_array_equal(codec.decode(payload, book_bytes, block.size), block)
        shared_payload = sum(len(payload) for payload in shared)

        print_table(
            "Shared vs per-block codebook encode (64 blocks of a 1M-symbol stream)",
            [
                {"mode": "per-block books", "payload bytes": per_block_payload,
                 "codebook bytes": per_block_books},
                {"mode": "shared book", "payload bytes": shared_payload,
                 "codebook bytes": len(book_bytes)},
            ],
        )
        # Block-fitted books shave < 1 % off the payload (measured 0.1 %) ...
        assert per_block_payload <= shared_payload <= 1.01 * per_block_payload
        # ... and cost 42x the codebook bytes, so the shared layout wins.
        assert shared_payload + len(book_bytes) < per_block_payload + per_block_books


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
        for label, scale in [("skewed eb", 0.8), ("moderate eb", 3.0), ("tight eb", 12.0)]:
            symbols = quantiser_stream(1_000_000, scale)
            stream_bytes = symbols.nbytes
            payload, table_bytes, count = rans_encode(rans, symbols)
            decoded = rans.decode(payload, table_bytes, count)
            np.testing.assert_array_equal(decoded, symbols)
            decode_s = best_of(lambda: rans.decode(payload, table_bytes, count))

            h_payload, h_book, h_count = huffman.encode(symbols)
            h_decode_s = best_of(lambda: huffman.decode(h_payload, h_book, h_count))
            speedup = h_decode_s / decode_s
            bitloop_s = best_of(
                lambda: huffman.decode_bitloop(h_payload, h_book, h_count), repeats=1
            )

            rans_bytes = len(payload) + len(table_bytes)
            rows.append(
                {
                    "distribution": label,
                    "decode MB/s": _mbps(stream_bytes, decode_s),
                    "huffman decode MB/s": _mbps(stream_bytes, h_decode_s),
                    "speedup": speedup,
                    "vs bit loop": bitloop_s / decode_s,
                    "bytes vs huffman": rans_bytes / len(h_payload),
                }
            )
        print_table("rANS decode vs decode_bitloop (1M-symbol quantiser streams)", rows)
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

    def test_file_of_block_streams_decodes_as_one_batch_2x(self):
        """A file's block streams, each with its own table, as one lockstep batch."""
        rans = RansCodec()
        streams = [rans_encode(rans, codes) for codes in file_codes()]

        def one_at_a_time():
            return [rans.decode(*stream) for stream in streams]

        for batched, alone in zip(rans.decode_streams(streams), one_at_a_time()):
            np.testing.assert_array_equal(batched, alone)
        batch_s, alone_s = interleaved_best([lambda: rans.decode_streams(streams), one_at_a_time])
        lone_s = best_of(lambda: rans.decode(*streams[0]), repeats=9)
        print_table(
            "rANS decode of one file: 18 blocks of 32^3 symbols, a table each",
            [{
                "one at a time ms": alone_s * 1e3,
                "batch ms": batch_s * 1e3,
                "speedup": alone_s / batch_s,
                "lone stream ms": lone_s * 1e3,
            }],
        )
        assert alone_s / batch_s >= MIN_RANS_BATCH_SPEEDUP, (
            f"batched rANS decode only {alone_s / batch_s:.1f}x one stream at a time"
        )

    def test_file_of_block_streams_encodes_as_one_batch(self):
        """The same 18 streams, a table each, encoded as one lockstep batch."""
        rans = RansCodec()
        streams = [
            (codes, RansFrequencyTable.try_from_frequencies(symbol_frequencies(codes)))
            for codes in file_codes()
        ]

        def one_at_a_time():
            return [rans.encode_with_table(codes, table) for codes, table in streams]

        assert rans.encode_streams(streams) == one_at_a_time()
        batch_s = best_of(lambda: rans.encode_streams(streams), repeats=9)
        alone_s = best_of(one_at_a_time, repeats=5)
        print_table(
            "rANS encode of one file: 18 blocks of 32^3 symbols, a table each",
            [{"one at a time ms": alone_s * 1e3, "batch ms": batch_s * 1e3,
              "speedup": alone_s / batch_s}],
        )
        assert alone_s / batch_s >= MIN_RANS_ENCODE_BATCH_SPEEDUP, (
            f"batched rANS encode only {alone_s / batch_s:.1f}x one stream at a time"
        )


class TestPipelineThroughput:
    def test_full_pipeline_blob_sizes_and_bound(self):
        """(D) Blocked sz3 under both entropy stages: bound held, shared book smaller."""
        x = np.linspace(0, 6 * np.pi, 384)
        rng = np.random.default_rng(3)
        field = (
            np.sin(x)[:, None] * np.cos(x)[None, :]
            + rng.normal(0, 0.01, (384, 384))
        ).astype(np.float32)
        bound = ErrorBound(value=1e-3, mode="abs")
        rows = []
        blob_bytes = {}
        for entropy_stage in ("huffman", "rans"):
            for label, shared in [("shared codebook", True), ("per-block codebooks", False)]:
                compressor = create_blocked_compressor(
                    "sz3",
                    block_shape=64,
                    shared_codebook=shared,
                    entropy_stage=entropy_stage,
                )
                blob = compressor.compress(field, bound).blob
                recon = compressor.decompress(blob)
                max_error = float(np.abs(recon.astype(np.float64) - field).max())
                assert max_error <= 1e-3 * 1.01
                blob_bytes[entropy_stage, shared] = blob.nbytes
                rows.append(
                    {
                        "entropy": entropy_stage,
                        "mode": label,
                        "blocks": blob.num_blocks,
                        "blob bytes": blob.nbytes,
                        "ratio": field.nbytes / blob.nbytes,
                        "max error": max_error,
                    }
                )
        print_table("sz3 pipeline (384x384 float32, blocked 64)", rows)
        for entropy_stage in ("huffman", "rans"):
            assert blob_bytes[entropy_stage, True] < blob_bytes[entropy_stage, False], (
                f"{entropy_stage}: shared-codebook blob should be smaller than "
                "the per-block layout"
            )
