"""Blob-format tests: version 3 round trips, older versions read, random access.

Covers the on-the-wire guarantees the streaming refactor leans on:

* every registry pipeline round-trips both one-block (the v1 layout) and
  multi-block blobs, written as container version 3;
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
  a malformed header of any version (negative sizes, mistyped blob
  fields and bytes after the last section included) ends in
  ``EncodingError``.

``python tests/test_blob_formats.py --table`` prints the byte ledger:
where the bytes of each workload's blobs go.
"""

from __future__ import annotations

import hashlib
import json
import struct
import sys
import zlib
from collections import Counter
from pathlib import Path
from typing import Callable, Iterator, List, Tuple

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
from repro.cache.keys import checksum
from repro.compression.encoders.huffman import HuffmanCodebook
from repro.compression.encoders.rans import lane_limit
from repro.compression.header import encode_header, read_frame
from repro.compression.sz.encoding import inflate_section, open_section, split_layout
from repro.errors import CompressionError, EncodingError

PIPELINES = available_compressors()
BOUND = 1e-3


def _field(shape=(40, 36)) -> np.ndarray:
    x = np.linspace(0, 4 * np.pi, shape[0])
    y = np.linspace(0, 3 * np.pi, shape[1])
    base = np.sin(x)[:, None] * np.cos(y)[None, :]
    noise = np.random.default_rng(11).normal(0, 0.01, shape)
    return (base + noise).astype(np.float32)


def _as_version(data: bytes, version: int) -> bytes:
    """Rewrite the container's version field."""
    assert data[:4] == b"OCLT"
    return data[:4] + struct.pack("<I", version) + data[8:]


class TestCrossVersionRoundTrips:
    @pytest.mark.parametrize("name", PIPELINES)
    def test_whole_array_blob_is_written_as_v3(self, name):
        data = _field()
        result = create_compressor(name).compress(data, ErrorBound(value=BOUND, mode="abs"))
        payload = result.blob.to_bytes()
        blob = CompressedBlob.from_bytes(payload)
        assert blob.format_version == 3 and blob.container.checked
        assert blob.num_blocks == 1
        recon = create_compressor(name).decompress(blob)
        assert np.abs(data.astype(np.float64) - recon.astype(np.float64)).max() <= BOUND * 1.01
        for version in (1, 2):  # a binary header is not the JSON one older versions read
            with pytest.raises(EncodingError):
                CompressedBlob.from_bytes(_as_version(payload, version))

    @pytest.mark.parametrize("name", PIPELINES)
    def test_blocked_blob_round_trip(self, name):
        data = _field()
        compressor = create_compressor(name).configure_blocks(block_shape=16)
        result = compressor.compress(data, ErrorBound(value=BOUND, mode="abs"))
        blob = CompressedBlob.from_bytes(result.blob.to_bytes())
        assert blob.format_version == 3
        assert blob.num_blocks == BlockPlan.partition(data.shape, 16).num_blocks > 1
        recon = create_compressor(name).decompress(blob)
        assert np.abs(data.astype(np.float64) - recon.astype(np.float64)).max() <= BOUND * 1.01

    @pytest.mark.parametrize("shared", [False, True])
    def test_a_field_far_from_zero_round_trips_through_a_wide_codebook(self, shared):
        """zfp-like's DC code of a 4^3 block is about 32 x mean / bound: at 300
        over 1e-3 its Huffman book spans more than the 2^22 values the dense
        layout stores, so the book is written as (symbol, length) pairs."""
        data = (300.0 + np.tile(_field((8, 8)), (2, 1, 1))).astype(np.float32)
        compressor = create_compressor("zfp-like")
        if shared:
            compressor = compressor.configure_blocks(block_shape=4, shared_codebook=True)
        blob = CompressedBlob.from_bytes(
            compressor.compress(data, ErrorBound(value=BOUND, mode="abs")).blob.to_bytes()
        )
        if shared:
            book = blob.shared_codebook_bytes
        else:
            book = open_section(blob, "payload").get_section("codes_codebook")
        assert book[8] == 0  # the wide layout's marker
        recon = create_compressor("zfp-like").decompress(blob)
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
BLOB_FIXTURES = sorted(name for name, row in FIXTURES.items() if not row.get("message"))
# How each aliased row was written (``create_blocked_compressor(name, block_shape=16,
# **options)`` on ``golden_field()``), its codebook mode and its block sections' code array.
ALIASED_WRITERS = {
    "v3-aliased-blocks": ("sz3", {"shared_codebook": True}, "shared", "codes_payload"),
    "v3-aliased-per-block": ("sz3", {"shared_codebook": False}, "per-block", "codes_codebook"),
    "v3-aliased-rans": (
        "sz3", {"shared_codebook": True, "entropy_stage": "rans"}, "shared", "codes_payload"
    ),
    "v3-aliased-sz3-fast": ("sz3-fast", {}, "none", "codes_raw"),
    "v3-aliased-sz-lorenzo": ("sz-lorenzo", {}, "shared", "codes_payload"),
}


class TestOlderBuildsBlobs:
    """Bytes as older builds wrote them: a v1 blob (version word 1), a
    one-block v2 blob with a *stored* index and a header-borne shared
    codebook, a two-block v2 blob, two 18-block rANS blobs (Miranda in
    32^3 blocks, per-block and shared tables) written before a stream's
    lanes came from its file's plan and tables were stored as gaps, and
    the last v2 writer's shared and per-block Huffman blobs (codebooks as
    (symbol, length) pairs), ``sz3-fast`` raw codes, a split section, one
    streamed block message, ``sz2`` and ``sz3-linear`` blobs (regression
    and interpolation aux arrays), a ``zfp-like`` blob of a field far
    from zero, whose book is too wide for the dense layout, and five v3
    blobs of ``golden_field()`` from the last build that stored identical
    blocks once (``sz3`` with a shared Huffman book, per-block books and a
    shared rANS table, ``sz3-fast`` raw codes and ``sz-lorenzo``): three
    index entries of each are aliases naming their representative's
    section."""

    @pytest.mark.parametrize("fixture", BLOB_FIXTURES)
    def test_fixture_decodes_to_its_recorded_digest(self, fixture):
        row = FIXTURES[fixture]
        blob = CompressedBlob.from_bytes(bytes.fromhex(row["hex"]))
        index = blob.block_index
        assert blob.num_blocks == len(index) == row["num_blocks"]
        assert [entry["section"] for entry in index] == row["sections"]
        assert blob.container.section_names() == list(dict.fromkeys(row["sections"]))
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

    def test_the_last_v2_writers_fixtures_are_the_layouts_they_claim(self):
        def inners(name):
            blob = CompressedBlob.from_bytes(bytes.fromhex(FIXTURES[name]["hex"]))
            assert blob.format_version == 2
            return blob, [open_section(blob, e["section"]) for e in blob.block_index]

        shared, _ = inners("v2-huffman-shared")
        assert isinstance(shared.container.header["shared_codebook"], str)  # base64
        assert len(shared.shared_codebook_bytes) % 16 == 0  # (symbol, length) pairs
        _, per_block = inners("v2-huffman-per-block")
        assert all(len(i.get_section("codes_codebook")) % 16 == 0 for i in per_block)
        _, (raw,) = inners("v2-sz3-fast-raw")
        assert "codes_raw" in raw.section_names()
        split, _ = inners("v2-split-section")
        assert split.container.get_section("payload")[:1] == b"S"
        for name, aux in (("v2-sz2", "aux_coefficients"), ("v2-sz3-linear", "aux_base")):
            _, (inner,) = inners(name)
            assert aux in inner.section_names()
        _, (zfp,) = inners("v2-zfp-like-wide-book")
        book = HuffmanCodebook.from_pairs(zfp.get_section("codes_codebook"))
        assert book.symbols[-1] - book.symbols[0] >= 1 << 22  # wider than the dense layout

    def test_an_older_builds_block_message_parses_and_assembles(self):
        row = FIXTURES["v2-block-message"]
        message = bytes.fromhex(row["hex"])
        assert SectionContainer.from_bytes(message).source_version == 2
        header, entry, payload = CompressedBlob.parse_block(message)
        blob = CompressedBlob.assemble(header, [(entry, payload)])
        recon = create_compressor(row["compressor"]).decompress(blob)
        assert list(recon.shape) == row["shape"]
        digest = hashlib.blake2b(np.ascontiguousarray(recon).tobytes(), digest_size=8)
        assert digest.hexdigest() == row["decoded"]
        # Re-sent, the message is version 3 and carries checksums.
        again = CompressedBlob.from_bytes(blob.to_bytes()).export_block(0)
        assert SectionContainer.from_bytes(again).checked
        assert CompressedBlob.parse_block(again)[2] == payload

    @pytest.mark.parametrize("fixture", sorted(ALIASED_WRITERS))
    def test_serialised_roundtrip_and_random_access_on_alias(self, fixture):
        """Blocks 2, 5 and 8 repeat blocks 0, 3 and 6; an alias stores no section of
        its own, and decoding it reads its representative's."""
        row = FIXTURES[fixture]
        _, _, codebook_mode, codes = ALIASED_WRITERS[fixture]
        blob = CompressedBlob.from_bytes(bytes.fromhex(row["hex"]))
        assert blob.format_version == 3 and blob.aliased_block_count == 3
        assert blob.codebook_mode == codebook_mode
        assert codes in open_section(blob, "block:0").section_names()
        compressor = create_compressor(row["compressor"])
        for alias, rep_id in ((2, 0), (5, 3), (8, 6)):
            entry = blob.block_entry(alias)
            assert (entry["alias_of"], entry["section"]) == (rep_id, f"block:{rep_id}")
            np.testing.assert_array_equal(
                compressor.decompress_block(blob, alias), compressor.decompress_block(blob, rep_id)
            )

    @pytest.mark.parametrize("fixture", sorted(ALIASED_WRITERS))
    def test_this_build_stores_each_alias_as_a_copy_of_its_representative(self, fixture):
        """The same field and options now write no alias: each repeated block
        gets a section of its own, a byte copy of its representative's, every
        other section is the fixture's, and the decoded array does not move."""
        from test_golden_blobs import ERROR_BOUND, golden_field

        row = FIXTURES[fixture]
        name, options, _, _ = ALIASED_WRITERS[fixture]
        old = CompressedBlob.from_bytes(bytes.fromhex(row["hex"]))
        compressor = create_blocked_compressor(name, block_shape=16, **options)
        blob = CompressedBlob.from_bytes(
            compressor.compress(golden_field(), ERROR_BOUND).blob.to_bytes()
        )
        assert blob.aliased_block_count == 0
        assert blob.container.section_names() == [f"block:{i}" for i in range(9)]
        assert blob.shared_codebook_bytes == old.shared_codebook_bytes
        for section in old.container.section_names():
            assert blob.container.get_section(section) == old.container.get_section(section)
        for alias, rep_id in ((2, 0), (5, 3), (8, 6)):
            assert blob.container.get_section(f"block:{alias}") == old.container.get_section(
                f"block:{rep_id}"
            )
        recon = create_compressor(name).decompress(blob)
        digest = hashlib.blake2b(np.ascontiguousarray(recon).tobytes(), digest_size=8)
        assert digest.hexdigest() == row["decoded"]

    def test_aliased_blob_roundtrips_within_bound(self):
        from test_golden_blobs import ERROR_BOUND, golden_field

        field = golden_field()
        blob = CompressedBlob.from_bytes(bytes.fromhex(FIXTURES["v3-aliased-blocks"]["hex"]))
        recon = create_compressor("sz3").decompress(blob)
        assert np.abs(recon.astype(np.float64) - field).max() <= ERROR_BOUND.value
        np.testing.assert_array_equal(recon[:, 32:], recon[:, :16])

    @pytest.mark.parametrize("fixture", sorted(FIXTURES))
    def test_bytes_after_the_last_section_are_an_encoding_error(self, fixture):
        data = bytes.fromhex(FIXTURES[fixture]["hex"]) + b"garbage"
        with pytest.raises(EncodingError, match="trailing bytes"):
            SectionContainer.from_bytes(data)

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
    """A v2 container: a JSON header."""
    return b"OCLT" + struct.pack("<II", 2, len(header_bytes)) + header_bytes + body


def _sections(*entries) -> bytes:
    return json.dumps({"_sections": list(entries)}).encode()


def _crafted_v3(header_bytes: bytes, body: bytes = b"AAAABBBB", checked: int = 0) -> bytes:
    """A v3 container around ``header_bytes``; a checked one gets the right header checksum."""
    frame = b"OCLT" + struct.pack("<IBB", 3, checked, len(header_bytes)) + header_bytes
    return frame + (checksum(header_bytes) if checked else b"") + body


def _table(*entries) -> bytes:
    return encode_header({"_sections": list(entries)})


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
        with pytest.raises(EncodingError, match="duplicate"):
            SectionContainer.from_bytes(_crafted_v3(_table(["a", 3], ["a", 0]), b"one"))


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
        "data",
        [
            _crafted_v3(_table(["a", 8], ["b", -4], ["c", 4])),
            _crafted_v3(b"\xbd"),  # a dict whose count takes the reserved argument 29
            _crafted_v3(_table(["a", 8])[:-1]),
            _crafted_v3(b"\x80"),
            _crafted_v3(_table(5)),
            _crafted_v3(_table([3, 8])),
            _crafted_v3(_table(["a", True], ["b", 7])),
            _crafted_v3(_table(["a", 8, b"\0" * 8])),  # a checksum in an unchecked table
            _crafted_v3(_table(["a", 8]), checked=1),  # a checked table without them
            _crafted_v3(_table(["a", 8]), checked=2),
            _crafted_v3(b"\xa1\xc0" + b"\x81" * 40 + b"\x80"),
            _crafted_v3(b"\xa1\x63\xff\xfe\xfd\x80"),
            _crafted_v3(b"\xa1\xdc\x7f\x80"),
            _crafted_v3(_table(["a", 8]) + b"\x00"),
            _crafted_v3(_table(["a", 4])),
            _crafted_v3(_table(["a", 8]))[:-1],
        ],
        ids=["negative-size", "reserved-argument", "truncated-header", "header-not-a-dict",
             "entry-not-a-list", "name-not-a-string", "size-not-an-integer",
             "unchecked-entry-with-checksum", "checked-entry-without-one",
             "unknown-flags", "nested-too-deep", "not-utf8", "name-past-the-table",
             "bytes-after-the-header", "bytes-after-the-sections", "truncated-section"],
    )
    @pytest.mark.parametrize(
        "parse",
        [SectionContainer.from_bytes, CompressedBlob.from_bytes, CompressedBlob.parse_block],
        ids=["container", "blob", "block-message"],
    )
    def test_every_parser_raises_encoding_error_on_a_bad_v3_frame(self, parse, data):
        with pytest.raises(EncodingError):
            parse(data)

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


# --------------------------------------------------------------------------- #
# Byte ledger: where a workload's blob bytes go
# --------------------------------------------------------------------------- #
LEDGER_COLUMNS = ("header + table", "checksums", "models", "sync index", "side parts", "streams")
_PART_COLUMN = {
    "codes_payload": "streams", "codes_raw": "streams", "codes_codebook": "models",
    "codes_freqs": "models", "codes_sync": "sync index",
}


def _section_ledger(blob: CompressedBlob, name: str, size: int, into: Counter) -> None:
    """One stored section's bytes, by column.  A split section's stored tail
    counts as stream bytes exactly; the record and the deflated body are
    shared among their parts — the inner frame, each inner section and the
    stream's head — in proportion to what each deflates to alone."""
    raw, stream = inflate_section(blob, name)
    inner = SectionContainer.from_bytes(raw)
    frame = len(raw) - sum(map(inner.section_size, inner.section_names()))
    parts = [("side parts", raw[:frame])] + [
        (_PART_COLUMN.get(part, "side parts"), inner.get_section(part))
        for part in inner.section_names()
    ]
    rest = size
    if stream is not None:
        _, end, head = split_layout(blob.container.get_section(name))
        into["streams"] += size - end
        parts.append(("streams", stream[:head]))
        rest = end
    alone = [(column, len(zlib.compress(data)) if data else 0) for column, data in parts]
    total = sum(n for _, n in alone) or 1
    for column, n in alone:
        into[column] += rest * n / total


def blob_ledger(payloads: List[bytes]) -> Counter:
    """Bytes of ``payloads`` (v3 blobs) by :data:`LEDGER_COLUMNS`."""
    ledger: Counter = Counter()
    for data in payloads:
        blob = CompressedBlob.from_bytes(data)
        _, header, table, offset, checked = read_frame(data)
        sums = 8 * (len(table) + 1) if checked else 0
        model = len(header.get("shared_codebook") or b"")
        ledger.update({"checksums": sums, "models": model})
        ledger["header + table"] += offset - sums - model
        for name, size, _ in table:
            _section_ledger(blob, name, size, ledger)
    return ledger


def ledger_workloads() -> Iterator[Tuple[str, List[np.ndarray], Callable]]:
    """``(shape, fields, compressor factory)`` of each benchmark workload's blobs."""
    from repro.datasets import generate_application, generate_field

    gateway = [
        f.data
        for seed in range(12000, 12016)
        for f in generate_application(
            "miranda", snapshots=1, scale=0.03, seed=seed, fields=["density", "pressure"]
        ).fields
    ]
    bulk = [f.data for f in generate_application("miranda", snapshots=1, scale=0.25, seed=12).fields]
    resync = [
        generate_field("miranda", name, snapshot=0, scale=0.2, seed=12).data
        for name in ("density", "pressure", "velocityx", "viscosity")
    ]
    yield "gateway sz3-fast (32 fields)", gateway, lambda: create_compressor("sz3-fast")
    yield "gateway sz3 (32 fields)", gateway, lambda: create_compressor("sz3")
    yield "bulk shared huffman", bulk, lambda: create_blocked_compressor("sz3", block_shape=32)
    yield "streamed rans adaptive", bulk, lambda: create_blocked_compressor(
        "sz3", block_shape=32, entropy_stage="rans", adaptive_predictor=True,
        shared_codebook=False)
    yield "resync sz3-fast 32^3", resync, lambda: create_blocked_compressor(
        "sz3-fast", block_shape=32)


def test_the_ledger_accounts_for_every_byte():
    noise = np.random.default_rng(9).uniform(-1, 1, (16, 16, 32)).astype(np.float32)
    payloads = [
        create_blocked_compressor(name, block_shape=16)
        .compress(noise, ErrorBound(value=3e-3, mode="abs")).blob.to_bytes()
        for name in ("sz3", "sz3-fast")
    ]
    assert CompressedBlob.from_bytes(payloads[0]).container.get_section("block:0")[:1] == b"s"
    ledger = blob_ledger(payloads)
    assert sum(ledger.values()) == pytest.approx(sum(map(len, payloads)), abs=1e-6)
    assert set(ledger) <= set(LEDGER_COLUMNS) and ledger["checksums"] == 2 * 8 * 3


def test_on_gateway_sized_fields_sz3_writes_fewer_bytes_than_sz3_fast():
    """Dense codebooks: the entropy coder pays for its model on files of 1 152 values."""
    gateway = next(ledger_workloads())[1]
    assert len(gateway) == 32 and gateway[0].size == 1152
    totals = {
        name: sum(
            len(create_compressor(name).compress(data, ErrorBound.relative(1e-3)).blob.to_bytes())
            for data in gateway
        )
        for name in ("sz3", "sz3-fast")
    }
    assert totals["sz3"] < totals["sz3-fast"], totals


def print_ledger() -> None:
    head = " | ".join(f"{column:>14}" for column in LEDGER_COLUMNS)
    print(f"| {'workload shape (rel 1e-3)':30} | {'blob bytes':>10} | {head} |")
    for shape, fields, factory in ledger_workloads():
        payloads = [
            factory().compress(data, ErrorBound.relative(1e-3)).blob.to_bytes() for data in fields
        ]
        ledger, total = blob_ledger(payloads), sum(map(len, payloads))
        cells = " | ".join(
            f"{ledger[c]:>8.0f} {100 * ledger[c] / total:4.1f}%" for c in LEDGER_COLUMNS
        )
        print(f"| {shape:30} | {total:>10} | {cells} |")


if __name__ == "__main__":
    if sys.argv[1:] != ["--table"]:
        raise SystemExit("usage: python tests/test_blob_formats.py --table")
    print_ledger()
