"""Property-based tests (hypothesis) for core invariants.

These cover the invariants the rest of the system is built on:

* error-bounded compression never violates the requested bound and is a
  faithful round trip for every compressor in the registry;
* the entropy/lossless/grouping codecs are exact inverses;
* a file's pooled entropy model codes every block it was pooled from,
  and a model that lacks a stream's symbol fails the encode, typed;
* the quantiser respects its bound for arbitrary residual distributions;
* the GridFTP model is monotone in the ways the paper relies on, which
  is what lets the sentinel bisect for its raw prefix.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays, array_shapes

from repro.compression import ErrorBound, create_compressor
from repro.compression.encoders import huffman_decode
from repro.compression.encoders.huffman import (
    MAX_CODE_LENGTH,
    SYNC_INTERVAL,
    HuffmanCodebook,
    HuffmanCodec,
    HuffmanStream,
    symbol_frequencies,
)
from repro.compression.encoders.rans import RansCodec, RansFrequencyTable, lane_limit
from repro.compression.predictors.base import PredictorOutput
from repro.compression.quantizer import LinearQuantizer
from repro.compression.sz.encoding import EncodingWire
from repro.core.grouping import FileGrouper
from repro.core.phases import raw_prefix_count
from repro.errors import EncodingError
from repro.features.compressor_features import run_length_estimator
from repro.transfer import GridFTPEngine, WANLink, build_testbed

TESTBED = build_testbed()

SLOW = settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
FAST = settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])


finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False, width=32
)
small_arrays = arrays(
    dtype=np.float32,
    shape=array_shapes(min_dims=1, max_dims=3, min_side=2, max_side=18),
    elements=finite_floats,
)


class TestCompressionInvariants:
    @SLOW
    @given(data=small_arrays, rel_bound=st.sampled_from([1e-4, 1e-3, 1e-2, 1e-1]))
    def test_sz3_error_bound_always_holds(self, data, rel_bound):
        compressor = create_compressor("sz3-fast")
        bound = ErrorBound.relative(rel_bound)
        result = compressor.compress(data, bound)
        recon = compressor.decompress(result.blob)
        eb_abs = bound.absolute_for(data)
        slack = eb_abs * (1 + 1e-9) + np.finfo(np.float32).eps * float(np.max(np.abs(data)))
        assert np.max(np.abs(recon.astype(np.float64) - data.astype(np.float64))) <= slack

    @SLOW
    @given(
        data=small_arrays,
        name=st.sampled_from(["sz-lorenzo-fast", "sz2", "zfp-like"]),
    )
    def test_all_compressors_round_trip_within_bound(self, data, name):
        compressor = create_compressor(name)
        bound = ErrorBound.relative(1e-3)
        result = compressor.compress(data, bound)
        recon = compressor.decompress(result.blob)
        eb_abs = bound.absolute_for(data)
        slack = eb_abs * (1 + 1e-9) + np.finfo(np.float32).eps * float(np.max(np.abs(data)))
        assert recon.shape == data.shape
        assert np.max(np.abs(recon.astype(np.float64) - data.astype(np.float64))) <= slack

    @SLOW
    @given(data=small_arrays)
    def test_blob_serialisation_is_lossless(self, data):
        from repro.compression import CompressedBlob

        compressor = create_compressor("sz3-fast")
        result = compressor.compress(data, ErrorBound.relative(1e-2))
        blob = CompressedBlob.from_bytes(result.blob.to_bytes())
        direct = compressor.decompress(result.blob)
        reparsed = compressor.decompress(blob)
        np.testing.assert_array_equal(direct, reparsed)


class TestQuantizerInvariants:
    @FAST
    @given(
        residuals=arrays(
            dtype=np.float64,
            shape=st.integers(min_value=1, max_value=300),
            elements=st.floats(min_value=-1e9, max_value=1e9, allow_nan=False),
        ),
        error_bound=st.floats(min_value=1e-8, max_value=1e3, allow_nan=False),
    )
    def test_quantizer_round_trip_within_bound(self, residuals, error_bound):
        quantizer = LinearQuantizer()
        result = quantizer.quantize(residuals, error_bound)
        recon = quantizer.dequantize(
            result.codes, result.unpredictable_mask, result.literals, error_bound
        )
        escaped = result.unpredictable_mask
        assert np.allclose(recon[escaped], residuals[escaped])
        assert np.max(np.abs(recon - residuals), initial=0.0) <= error_bound * (1 + 1e-9)


class TestEncoderInvariants:
    @FAST
    @given(symbols=st.lists(st.integers(min_value=-5000, max_value=5000), min_size=0, max_size=2000))
    def test_huffman_round_trip(self, symbols):
        codec = HuffmanCodec()
        arr = np.asarray(symbols, dtype=np.int64)
        payload, book, count = codec.encode(arr)
        np.testing.assert_array_equal(codec.decode(payload, book, count), arr)

    @FAST
    @given(
        counts=st.lists(st.integers(0, 5 * SYNC_INTERVAL), min_size=1, max_size=6),
        alphabet=st.integers(min_value=1, max_value=400),
        lockstep=st.booleans(),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_huffman_batches_decode_alike_on_either_walk(self, counts, alphabet, lockstep, seed):
        rng = np.random.default_rng(seed)
        values = rng.permutation(alphabet) - alphabet // 2
        streams = [values[rng.geometric(0.08, n).clip(max=alphabet) - 1] for n in counts]
        if not sum(counts):
            streams[0] = values[:1]
        book = HuffmanCodebook.from_frequencies(
            symbol_frequencies(np.concatenate(streams)), max_length=MAX_CODE_LENGTH
        )
        codec = HuffmanCodec()
        payloads = [codec.encode_with_book(symbols, book) for symbols in streams]
        batch = [
            HuffmanStream(bytes(p), s.size, getattr(p, "sync", None), SYNC_INTERVAL)
            for p, s in zip(payloads, streams)
        ]
        real = huffman_decode._LOCKSTEP_MIN_BYTES
        huffman_decode._LOCKSTEP_MIN_BYTES = 0 if lockstep else 1 << 40
        try:
            decoded = codec.decode_streams(batch, book.serialize())
        finally:
            huffman_decode._LOCKSTEP_MIN_BYTES = real
        for got, want, payload in zip(decoded, streams, payloads):
            np.testing.assert_array_equal(got, want)
            np.testing.assert_array_equal(
                got, codec.decode_bitloop(bytes(payload), book.serialize(), want.size)
            )

    @FAST
    @given(
        members=st.lists(
            st.tuples(st.text(alphabet="abcdefgh0123456789_", min_size=1, max_size=12), st.binary(max_size=500)),
            min_size=1,
            max_size=20,
            unique_by=lambda t: t[0],
        )
    )
    def test_group_pack_unpack_round_trip(self, members):
        grouper = FileGrouper()
        group = grouper.pack(members, "g")
        assert grouper.unpack(group.payload) == members


def _codes(seed: int, size: int, span: int) -> np.ndarray:
    """Quantiser-like codes: geometric about zero, ``span`` wide at most."""
    rng = np.random.default_rng(seed)
    magnitude = (rng.geometric(min(0.9, 4.0 / span), size) - 1).clip(max=span // 2)
    return (magnitude * rng.choice([-1, 1], size)).astype(np.int64)


class TestModelsCoverTheirStreams:
    @SLOW
    @given(
        seed=st.integers(0, 2**16),
        size=st.integers(1, 12_000),
        span=st.sampled_from([2, 40, 2_000, 20_000]),
        cuts=st.lists(st.integers(0, 12_000), max_size=6),
        stage=st.sampled_from(["huffman", "rans"]),
    )
    def test_the_pooled_model_codes_every_block(self, seed, size, span, cuts, stage):
        """Cut into 1..n blocks, a file's codes all plan against its pooled model
        (a rANS one whenever the alphabet fits a table) and decode back exactly."""
        codes = _codes(seed, size, span)
        blocks = np.split(codes, sorted({cut % size for cut in cuts}))
        encodings = [PredictorOutput(b, np.zeros(b.size, bool), np.zeros(0)) for b in blocks]
        wire = EncodingWire()
        model = wire.pooled_shared_book(stage, encodings)
        if stage == "rans" and model is None:  # no 12-bit table fits the pooled alphabet
            assert RansFrequencyTable.try_from_frequencies(symbol_frequencies(codes)) is None
            return
        plans = [wire.plan(e, stage, model, blocks=len(blocks)) for e in encodings]
        wire.emit(plans)
        coded = [plan for plan, block in zip(plans, blocks) if block.size]
        assert {(plan.codec, plan.codebook) for plan in coded} == {(stage, "shared")}
        decoded = wire.deserialize_all([plan.inner for plan in plans], model.serialize())
        for (got, *_), block in zip(decoded, blocks):
            np.testing.assert_array_equal(got, block)

    @FAST
    @given(
        seed=st.integers(0, 2**16),
        size=st.integers(1, 5_000),
        span=st.sampled_from([2, 40, 2_000]),
        where=st.sampled_from(["below", "inside", "above"]),
    )
    def test_a_symbol_outside_the_model_fails_the_encode(self, seed, size, span, where):
        codes = _codes(seed, size, span)
        frequencies = symbol_frequencies(codes)
        book = HuffmanCodebook.from_frequencies(frequencies, max_length=MAX_CODE_LENGTH)
        table = RansFrequencyTable.try_from_frequencies(frequencies)
        lo, hi = int(codes.min()), int(codes.max())
        gaps = np.setdiff1d(np.arange(lo, hi + 1), frequencies.symbols)
        outside = {"below": lo - 1, "above": hi + 1}.get(where, gaps[0] if gaps.size else hi + 1)
        stream = np.insert(codes, seed % (size + 1), outside)
        with pytest.raises(EncodingError):
            HuffmanCodec().encode_with_book(stream, book)
        with pytest.raises(EncodingError):
            RansCodec(lane_limit(2)).encode_streams([(codes, table), (stream, table)])


class TestModelInvariants:
    @FAST
    @given(
        p0=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        P0=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    )
    def test_run_length_estimator_is_positive(self, p0, P0):
        assert run_length_estimator(p0, P0) > 0.0

    @FAST
    @given(
        file_size=st.integers(min_value=1_000, max_value=10**9),
        count=st.integers(min_value=1, max_value=200),
    )
    def test_gridftp_duration_monotone_in_volume(self, file_size, count):
        link = WANLink(source="a", destination="b", bandwidth_bps=1e9,
                       per_file_overhead_s=0.2, per_stream_bandwidth_bps=3e8)
        engine = GridFTPEngine()
        base = engine.estimate([file_size] * count, link)
        more = engine.estimate([file_size] * (count + 1), link)
        assert more.duration_s >= base.duration_s
        assert base.total_bytes == file_size * count

    @FAST
    @given(
        sizes=st.lists(st.integers(min_value=0, max_value=2 * 10**10), max_size=40),
        route=st.permutations(["anvil", "cori", "bebop"]),
        wait_s=st.floats(min_value=0.0, max_value=300.0),
    )
    def test_sentinel_prefix_bisection_matches_a_linear_scan(self, sizes, route, wait_s):
        """A prefix's price never falls as it grows, so the sentinel's
        bisection counts what a file-by-file scan counts."""
        service, (source, destination, _) = TESTBED.service, route
        prices = [
            service.estimate(source, destination, sizes[:k]).duration_s
            for k in range(1, len(sizes) + 1)
        ]
        assert prices == sorted(prices)
        count = 0
        while count < len(sizes) and prices[count] <= wait_s:
            count += 1
        assert raw_prefix_count(service, source, destination, sizes, wait_s) == count

    @FAST
    @given(
        sizes=st.lists(st.integers(min_value=1, max_value=10**8), min_size=1, max_size=100),
    )
    def test_gridftp_speed_never_exceeds_link_bandwidth(self, sizes):
        link = WANLink(source="a", destination="b", bandwidth_bps=1e9,
                       per_file_overhead_s=0.01, per_stream_bandwidth_bps=1e9)
        estimate = GridFTPEngine().estimate(sizes, link)
        assert estimate.effective_speed_bps <= link.bandwidth_bps * (1 + 1e-9)
