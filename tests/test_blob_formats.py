"""Blob-format tests: v1/v2 cross-version round trips and random access.

Covers the on-the-wire guarantees the streaming refactor leans on:

* every registry pipeline round-trips both one-block (the v1 layout) and
  multi-block blobs, including blobs whose version field is rewritten
  to 1 (legacy readers);
* a blob stores its block index only when it has more than one block: a
  block shape that covers the array writes the bytes no block shape
  writes, and blobs older builds wrote (``blob_fixtures.json``) decode
  to their recorded digests whichever way they said it;
* a single block decodes via random access to exactly the same values as
  the corresponding region of a full decode — and a lazily parsed blob
  proves no other block section was ever materialised;
* per-block export/parse/assemble rebuilds a byte-identical decode at
  the destination from independently received sections;
* duplicate section names are rejected instead of silently shadowed, and
  a malformed header (negative sizes and mistyped blob fields included)
  ends in ``EncodingError``.
"""

from __future__ import annotations

import hashlib
import json
import struct
from pathlib import Path

import numpy as np
import pytest

from repro.compression import (
    BlockPlan,
    BlockSpec,
    CompressedBlob,
    ErrorBound,
    SectionContainer,
    available_compressors,
    create_blocked_compressor,
    create_compressor,
)
from repro.compression.encoders.rans import lane_limit
from repro.compression.sz.encoding import open_section
from repro.errors import CompressionError, EncodingError

PIPELINES = ["sz2", "sz3", "sz3-linear", "sz-lorenzo", "zfp-like"]
BOUND = 1e-3


def _field(shape=(40, 36)) -> np.ndarray:
    x = np.linspace(0, 4 * np.pi, shape[0])
    y = np.linspace(0, 3 * np.pi, shape[1])
    base = np.sin(x)[:, None] * np.cos(y)[None, :]
    noise = np.random.default_rng(11).normal(0, 0.01, shape)
    return (base + noise).astype(np.float32)


def _as_version(data: bytes, version: int) -> bytes:
    """Rewrite the container's version field (legacy-reader simulation)."""
    assert data[:4] == b"OCLT"
    return data[:4] + struct.pack("<I", version) + data[8:]


class TestCrossVersionRoundTrips:
    @pytest.mark.parametrize("name", PIPELINES)
    def test_whole_array_blob_reads_as_v1_and_v2(self, name):
        data = _field()
        result = create_compressor(name).compress(data, ErrorBound(value=BOUND, mode="abs"))
        payload = result.blob.to_bytes()
        for version in (1, 2):
            blob = CompressedBlob.from_bytes(_as_version(payload, version))
            assert blob.format_version == version
            assert blob.num_blocks == 1
            recon = create_compressor(name).decompress(blob)
            assert np.abs(data.astype(np.float64) - recon.astype(np.float64)).max() <= BOUND * 1.01

    @pytest.mark.parametrize("name", PIPELINES)
    def test_blocked_blob_round_trip(self, name):
        data = _field()
        compressor = create_compressor(name).configure_blocks(block_shape=16)
        result = compressor.compress(data, ErrorBound(value=BOUND, mode="abs"))
        blob = CompressedBlob.from_bytes(result.blob.to_bytes())
        assert blob.format_version == 2
        assert blob.num_blocks == BlockPlan.partition(data.shape, 16).num_blocks > 1
        recon = create_compressor(name).decompress(blob)
        assert np.abs(data.astype(np.float64) - recon.astype(np.float64)).max() <= BOUND * 1.01

    def test_unsupported_version_rejected(self):
        data = _field((8, 8))
        payload = create_compressor("sz3-fast").compress(
            data, ErrorBound(value=BOUND, mode="abs")
        ).blob.to_bytes()
        with pytest.raises(EncodingError):
            CompressedBlob.from_bytes(_as_version(payload, 9))


class TestRandomAccess:
    @pytest.mark.parametrize("name", PIPELINES)
    def test_single_block_decode_equals_full_decode(self, name):
        data = _field()
        compressor = create_compressor(name).configure_blocks(block_shape=16)
        payload = compressor.compress(data, ErrorBound(value=BOUND, mode="abs")).blob.to_bytes()
        full_blob = CompressedBlob.from_bytes(payload)
        full = create_compressor(name).decompress(full_blob)
        plan = BlockPlan.partition(data.shape, 16)
        decoder = create_compressor(name)
        for spec in plan:
            blob = CompressedBlob.from_bytes(payload)
            block = decoder.decompress_block(blob, spec.block_id)
            np.testing.assert_array_equal(block, full[spec.slices()])

    def test_random_access_never_touches_other_sections(self):
        data = _field()
        compressor = create_compressor("sz3-fast").configure_blocks(block_shape=16)
        payload = compressor.compress(data, ErrorBound(value=BOUND, mode="abs")).blob.to_bytes()
        blob = CompressedBlob.from_bytes(payload)
        assert blob.container.loaded_section_names() == []
        target = blob.num_blocks - 1
        create_compressor("sz3-fast").decompress_block(blob, target)
        # Decoding the last block materialised exactly one section.
        assert blob.container.loaded_section_names() == [f"block:{target}"]

    def test_block_zero_of_a_one_block_blob_is_the_array(self):
        data = _field((12, 12))
        compressor = create_compressor("sz3-fast")
        blob = compressor.compress(data, ErrorBound(value=BOUND, mode="abs")).blob
        for parsed in (blob, CompressedBlob.from_bytes(blob.to_bytes())):
            assert parsed.block_entry(0) == parsed.block_index[0]
            np.testing.assert_array_equal(
                compressor.decompress_block(parsed, 0), compressor.decompress(parsed)
            )
            with pytest.raises(EncodingError):
                parsed.block_entry(1)

    def test_block_lookup_traverses_the_index_once_per_blob(self):
        """Random access to every block is O(n), not O(n^2): the id ->
        entry map is built on the first lookup and kept until the
        header's index is replaced."""
        class CountingIndex(list):
            traversals = 0

            def __iter__(self):
                CountingIndex.traversals += 1
                return super().__iter__()

        data = _field()
        compressor = create_compressor("sz3-fast").configure_blocks(block_shape=8)
        payload = compressor.compress(data, ErrorBound(value=BOUND, mode="abs")).blob.to_bytes()
        blob = CompressedBlob.from_bytes(payload)
        header = blob.container.header
        header["block_index"] = CountingIndex(header["block_index"])
        assert blob.num_blocks == 25
        decoder = create_compressor("sz3-fast")
        for block_id in range(blob.num_blocks):
            decoder.decompress_block(blob, block_id)
            blob.export_block(block_id)
        assert CountingIndex.traversals == 1
        with pytest.raises(EncodingError):
            blob.block_entry(blob.num_blocks)
        header["block_index"] = CountingIndex(header["block_index"][:3])
        assert blob.block_entry(2)["id"] == 2
        with pytest.raises(EncodingError):
            blob.block_entry(3)
        assert CountingIndex.traversals == 2  # a replaced index is mapped afresh

    def test_parse_preserves_bytes(self):
        data = _field()
        compressor = create_compressor("sz3-fast").configure_blocks(block_shape=16)
        payload = compressor.compress(data, ErrorBound(value=BOUND, mode="abs")).blob.to_bytes()
        parsed = CompressedBlob.from_bytes(payload)
        assert parsed.container.loaded_section_names() == []
        assert parsed.to_bytes() == payload


class TestOneBlockPlan:
    """Whole-array is the one-block plan, and it writes the v1 layout."""

    @pytest.mark.parametrize("shape", [(1,), (5,), (7, 9), (4, 5, 6)], ids=str)
    @pytest.mark.parametrize("shared", [True, False], ids=["shared", "per-block"])
    @pytest.mark.parametrize("entropy", ["huffman", "rans", "none"])
    @pytest.mark.parametrize("name", available_compressors())
    def test_a_covering_block_shape_writes_the_unblocked_bytes(self, name, entropy, shared, shape):
        data = np.random.default_rng(5).standard_normal(shape).astype(np.float32).cumsum(axis=-1)
        payloads = [
            create_blocked_compressor(
                name, block_shape=block_shape, entropy_stage=entropy, shared_codebook=shared
            ).compress(data, ErrorBound(value=BOUND, mode="abs")).blob.to_bytes()
            for block_shape in (None, 16, shape)
        ]
        assert payloads[0] == payloads[1] == payloads[2]
        blob = CompressedBlob.from_bytes(payloads[0])
        assert blob.container.section_names() == ["payload"]
        assert not {"block_index", "block_shape", "shared_codebook"} & set(blob.container.header)
        assert not {"num_blocks", "adaptive_predictor", "block_codecs"} & set(blob.metadata)
        recon = create_compressor(name).decompress(blob)
        assert recon.shape == shape
        assert np.abs(data.astype(np.float64) - recon.astype(np.float64)).max() <= BOUND * 1.01

    def test_an_adaptive_one_block_blob_names_the_predictor_it_chose(self):
        data = _field((12, 12))
        compressor = create_blocked_compressor("sz2", block_shape=16, adaptive_predictor=True)
        blob = CompressedBlob.from_bytes(
            compressor.compress(data, ErrorBound(value=BOUND, mode="abs")).blob.to_bytes()
        )
        assert blob.num_blocks == 1 and "block_index" not in blob.container.header
        chosen = blob.block_index[0]["predictor"]
        assert chosen == blob.container.header["predictor"] != "regression"
        recon = create_compressor("sz2").decompress(blob)
        assert np.abs(data.astype(np.float64) - recon.astype(np.float64)).max() <= BOUND * 1.01

    def test_zero_dimensional_array_is_a_typed_error(self):
        for kwargs in ({}, {"block_shape": 8}):
            compressor = create_compressor("sz3").configure_blocks(**kwargs)
            with pytest.raises(CompressionError, match="cannot partition"):
                compressor.compress(np.float32(1.5), ErrorBound(value=BOUND, mode="abs"))


FIXTURES = json.loads(Path(__file__).with_name("blob_fixtures.json").read_text())


class TestOlderBuildsBlobs:
    """Bytes as older builds wrote them: a v1 blob (version word 1), a
    one-block v2 blob with a *stored* index and a header-borne shared
    codebook, a two-block v2 blob, and two 18-block rANS blobs (Miranda
    in 32^3 blocks, per-block and shared tables) written before a stream's
    lanes came from its file's plan and tables were stored as gaps."""

    @pytest.mark.parametrize("fixture", sorted(FIXTURES))
    def test_fixture_decodes_to_its_recorded_digest(self, fixture):
        row = FIXTURES[fixture]
        blob = CompressedBlob.from_bytes(bytes.fromhex(row["hex"]))
        index = blob.block_index
        assert blob.num_blocks == len(index) == row["num_blocks"]
        assert [entry["section"] for entry in index] == row["sections"]
        assert blob.container.section_names() == row["sections"]
        assert [entry["id"] for entry in index] == list(range(row["num_blocks"]))
        compressor = create_compressor(row["compressor"])
        recon = compressor.decompress(blob)
        assert list(recon.shape) == row["shape"]
        digest = hashlib.blake2b(np.ascontiguousarray(recon).tobytes(), digest_size=8)
        assert digest.hexdigest() == row["decoded"]
        for entry in index:
            block = compressor.decompress_block(blob, entry["id"])
            np.testing.assert_array_equal(block, recon[BlockSpec.from_dict(entry).slices()])

    def test_the_fixtures_are_the_layouts_they_claim(self):
        v1 = CompressedBlob.from_bytes(bytes.fromhex(FIXTURES["v1-whole-array"]["hex"]))
        assert v1.format_version == 1 and "block_index" not in v1.container.header
        stored = CompressedBlob.from_bytes(
            bytes.fromhex(FIXTURES["v2-one-block-stored-index"]["hex"])
        )
        assert len(stored.container.header["block_index"]) == 1
        assert stored.shared_codebook_bytes and stored.codebook_mode == "shared"

    @pytest.mark.parametrize("fixture", ["v2-rans-per-block", "v2-rans-shared"])
    def test_the_rans_fixtures_carry_wide_lanes_and_version_1_tables(self, fixture):
        """Its full blocks took 512 lanes or more where this build takes 256."""
        blob = CompressedBlob.from_bytes(bytes.fromhex(FIXTURES[fixture]["hex"]))
        inners = [open_section(blob, entry["section"]) for entry in blob.block_index]
        assert {inner.header["entropy"] for inner in inners} == {"rans"}
        full = [inner for inner in inners if inner.header["num_codes"] >= 32767]
        assert len(full) == 4 and lane_limit(blob.num_blocks) == 256
        assert all(inner.get_section("codes_payload")[1] >= 9 for inner in full)
        if fixture == "v2-rans-shared":
            tables = [blob.shared_codebook_bytes]
        else:
            tables = [inner.get_section("codes_freqs") for inner in inners]
        assert {table[0] for table in tables} == {1}


class TestStreamedBlockMessages:
    def test_export_parse_assemble_round_trip(self):
        data = _field()
        compressor = create_compressor("sz3-fast").configure_blocks(block_shape=16)
        source_blob = compressor.compress(data, ErrorBound(value=BOUND, mode="abs")).blob
        messages = [source_blob.export_block(i) for i in range(source_blob.num_blocks)]
        # Blocks arrive out of order at the destination.
        header = None
        received = []
        for message in reversed(messages):
            blob_header, entry, payload = CompressedBlob.parse_block(message)
            header = header or blob_header
            received.append((entry, payload))
        assembled = CompressedBlob.assemble(header, received)
        assert assembled.to_bytes() == source_blob.to_bytes()
        recon = create_compressor("sz3-fast").decompress(assembled)
        assert np.abs(data.astype(np.float64) - recon.astype(np.float64)).max() <= BOUND * 1.01

    def test_export_is_lazy(self):
        data = _field()
        compressor = create_compressor("sz3-fast").configure_blocks(block_shape=16)
        payload = compressor.compress(data, ErrorBound(value=BOUND, mode="abs")).blob.to_bytes()
        blob = CompressedBlob.from_bytes(payload)
        blob.export_block(2)
        assert blob.container.loaded_section_names() == ["block:2"]

    def test_assemble_rejects_missing_block(self):
        data = _field()
        compressor = create_compressor("sz3-fast").configure_blocks(block_shape=16)
        blob = compressor.compress(data, ErrorBound(value=BOUND, mode="abs")).blob
        header, entry, payload = CompressedBlob.parse_block(blob.export_block(0))
        with pytest.raises(EncodingError):
            CompressedBlob.assemble(header, [(entry, payload), (entry, payload)])
        bad_header, bad_entry, bad_payload = CompressedBlob.parse_block(blob.export_block(2))
        with pytest.raises(EncodingError):
            CompressedBlob.assemble(header, [(entry, payload), (bad_entry, bad_payload)])

    def test_parse_rejects_non_stream_message(self):
        with pytest.raises(EncodingError):
            CompressedBlob.parse_block(SectionContainer({"x": 1}).to_bytes())


def _crafted(header_bytes: bytes, body: bytes = b"AAAABBBB") -> bytes:
    return b"OCLT" + struct.pack("<II", 2, len(header_bytes)) + header_bytes + body


def _sections(*entries) -> bytes:
    return json.dumps({"_sections": list(entries)}).encode()


class TestDuplicateSections:
    def test_add_section_rejects_duplicates(self):
        container = SectionContainer()
        container.add_section("a", b"one")
        with pytest.raises(EncodingError):
            container.add_section("a", b"two")
        container.add_section("a", b"two", overwrite=True)
        assert container.get_section("a") == b"two"

    def test_from_bytes_rejects_duplicate_names(self):
        # A container whose header lists the same section name twice.
        crafted = _crafted(_sections({"name": "a", "size": 3}, {"name": "a", "size": 0}), b"one")
        with pytest.raises(EncodingError):
            SectionContainer.from_bytes(crafted)


class TestMalformedHeaders:
    """Bytes from outside end in ``EncodingError``, whatever is wrong with them."""

    @pytest.mark.parametrize(
        "header_bytes",
        [
            # Sizes [8, -4, 4]: ``c`` would alias the bytes that belong to ``a``.
            _sections({"name": "a", "size": 8}, {"name": "b", "size": -4},
                      {"name": "c", "size": 4}),
            b"{not json",
            b"\xff\xfe{}",
            b"[1, 2]",
            _sections("a", 3),
            _sections({"name": "a"}, {"size": 4}),
        ],
        ids=["negative-size", "not-json", "not-utf8", "header-not-an-object",
             "sections-not-objects", "entry-missing-a-key"],
    )
    @pytest.mark.parametrize(
        "parse",
        [SectionContainer.from_bytes, CompressedBlob.from_bytes, CompressedBlob.parse_block],
        ids=["container", "blob", "block-message"],
    )
    def test_every_parser_raises_encoding_error(self, parse, header_bytes):
        with pytest.raises(EncodingError):
            parse(_crafted(header_bytes))

    @pytest.mark.parametrize(
        "field, value",
        [
            ("shape", 5),
            ("shape", ["a", "b"]),
            ("shape", [16, -16]),
            ("shape", [16, 17]),  # well-typed, but not what the sections hold
            ("error_bound_abs", "x"),
            ("error_bound_abs", None),
            ("dtype", 7),
            ("dtype", "nope"),
            ("metadata", [1]),
        ],
        ids=lambda v: json.dumps(v) if not isinstance(v, str) or v in ("x", "nope") else v,
    )
    @pytest.mark.parametrize("block_shape", [None, 8], ids=["one-block", "blocked"])
    def test_a_mistyped_blob_field_is_an_encoding_error(self, block_shape, field, value):
        """The blob-level fields are outside bytes too, and the entry a
        one-block blob implies is built from them."""
        data = _field((16, 16))
        compressor = create_blocked_compressor("sz3", block_shape=block_shape)
        container = SectionContainer.from_bytes(
            compressor.compress(data, ErrorBound(value=BOUND, mode="abs")).blob.to_bytes()
        )
        container.header[field] = value
        with pytest.raises(EncodingError):
            compressor.decompress(CompressedBlob.from_bytes(container.to_bytes()))
