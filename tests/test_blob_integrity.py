"""Blob integrity: what container version 3 checks, and that damage always fails typed.

* A top-level container — a blob, a streamed block message — stores a
  blake2b-8 of its header and one per section; a container nested inside
  a section stores none.  The header is checked when the blob is parsed,
  a section when it is first read, so random access stays lazy.
* The section checksums are taken where a section is made (the call
  ``pack_section`` returns, which runs on the helper lane); serialising
  a blob hashes only its header, and sizing one hashes nothing.
* Every single-bit flip of four v3 blobs — a gateway-sized whole-array
  ``sz3-fast`` blob, a blocked shared-Huffman blob, a blob with a split
  ``b"s"`` section and a streamed block message — ends in
  :class:`EncodingError` (mostly its :class:`IntegrityError`), never in a
  decode or an untyped exception.
* Arbitrary bytes fed to the header decoder or the frame reader raise
  :class:`EncodingError` and nothing else; what the encoder writes, the
  decoder reads back.
"""

from __future__ import annotations

import struct
from typing import Callable, Dict, Tuple

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.compression import (
    CompressedBlob, ErrorBound, SectionContainer, create_blocked_compressor, create_compressor,
)
from repro.compression import header as frame, interface
from repro.compression.header import NAMES, decode_header, encode_header
from repro.compression.sz.encoding import open_section, pack_section
from repro.cache.keys import checksum
from repro.compression.encoders.lossless import DeflateBackend
from repro.datasets import generate_application
from repro.errors import EncodingError, IntegrityError

BOUND = ErrorBound(value=1e-3, mode="abs")


def _walk() -> np.ndarray:
    steps = np.random.default_rng(2023).integers(-(1 << 12), 1 << 12, size=(32, 32))
    return (np.cumsum(steps, axis=1) / 65536.0).astype(np.float32)


def _decoder(name: str) -> Callable[[bytes], object]:
    compressor = create_compressor(name)
    return lambda data: compressor.decompress(CompressedBlob.from_bytes(data))


def _count_checksums(monkeypatch) -> list:
    """Record every checksum the container and its frame take."""
    calls = []

    def counted(data):
        calls.append(len(data))
        return checksum(data)

    for module in (interface, frame):
        monkeypatch.setattr(module, "checksum", counted)
    return calls


def _fuzz_cases() -> Dict[str, Tuple[bytes, Callable[[bytes], object]]]:
    gateway = generate_application(
        "miranda", snapshots=1, scale=0.03, seed=12000, fields=["density"]
    ).fields[0].data
    whole = create_compressor("sz3-fast").compress(gateway, ErrorBound.relative(1e-3)).blob
    blocked = create_blocked_compressor("sz3", block_shape=16, shared_codebook=True)
    shared = blocked.compress(_walk(), BOUND).blob
    noise = np.random.default_rng(9).uniform(-1, 1, (16, 16, 16)).astype(np.float32)
    split = create_compressor("sz3").compress(noise, ErrorBound(value=3e-3, mode="abs")).blob
    assert split.container.get_section("payload")[:1] == b"s"
    assert shared.codebook_mode == "shared" and shared.num_blocks == 4
    return {
        "whole-sz3-fast": (whole.to_bytes(), _decoder("sz3-fast")),
        "blocked-shared-huffman": (shared.to_bytes(), _decoder("sz3")),
        "split-section": (split.to_bytes(), _decoder("sz3")),
        "block-message": (shared.export_block(1), CompressedBlob.parse_block),
    }


FUZZ = _fuzz_cases()


@pytest.mark.parametrize("case", sorted(FUZZ))
def test_every_bit_flip_ends_in_an_encoding_error(case):
    data, decode = FUZZ[case]
    decode(data)  # the undamaged bytes decode
    outcomes = {"integrity": 0, "encoding": 0}
    flipped = bytearray(data)
    for bit in range(len(data) * 8):
        flipped[bit >> 3] ^= 1 << (bit & 7)
        try:
            decode(bytes(flipped))
        except IntegrityError:
            outcomes["integrity"] += 1
        except EncodingError:
            outcomes["encoding"] += 1
        else:
            pytest.fail(f"{case}: flipping bit {bit} still decodes")
        flipped[bit >> 3] ^= 1 << (bit & 7)
    assert sum(outcomes.values()) == len(data) * 8
    # Outside the few bytes before the checksummed header, a checksum catches it.
    assert outcomes["encoding"] <= 12 * 8, outcomes


class TestChecksums:
    def test_top_level_containers_are_checked_and_nested_ones_are_not(self):
        blob = CompressedBlob.from_bytes(FUZZ["blocked-shared-huffman"][0])
        assert blob.container.checked and FUZZ["blocked-shared-huffman"][0][8] == 1
        assert SectionContainer.from_bytes(FUZZ["block-message"][0]).checked
        inner = open_section(blob, "block:0")
        assert not inner.checked and inner.to_bytes()[8] == 0

    def test_a_damaged_section_fails_when_it_is_first_read(self):
        data = bytearray(FUZZ["blocked-shared-huffman"][0])
        blob = CompressedBlob.from_bytes(bytes(data))
        entry = blob.block_entry(3)
        offset = len(data) - blob.container.section_size(entry["section"])
        data[offset + 5] ^= 0x10
        damaged = CompressedBlob.from_bytes(bytes(data))  # the header is intact
        decoder = create_compressor("sz3")
        np.testing.assert_array_equal(
            decoder.decompress_block(damaged, 0), decoder.decompress_block(blob, 0)
        )
        with pytest.raises(IntegrityError, match="block:3"):
            decoder.decompress_block(damaged, 3)
        assert "block:3" not in damaged.container.loaded_section_names()

    def test_a_damaged_header_fails_at_parse(self):
        data = bytearray(FUZZ["whole-sz3-fast"][0])
        data[20] ^= 0x01
        with pytest.raises(IntegrityError, match="header"):
            CompressedBlob.from_bytes(bytes(data))

    def test_sections_are_checksummed_where_they_are_made(self, monkeypatch):
        inner = SectionContainer({"entropy": "huffman"})
        inner.add_section("codes_payload", bytes(range(256)) * 20)
        section = pack_section(DeflateBackend(), inner)()
        assert isinstance(section, interface.Checksummed)
        assert section.digest == checksum(section)
        compressor = create_blocked_compressor("sz3", block_shape=16)
        blob = compressor.compress(_walk(), BOUND).blob
        calls = _count_checksums(monkeypatch)
        blob.nbytes
        assert calls == []  # sizing hashes nothing
        payload = blob.to_bytes()
        assert len(calls) == 1  # the header; the sections came with theirs
        assert CompressedBlob.from_bytes(payload).to_bytes() == payload

    def test_a_message_reuses_the_checksum_its_section_was_read_with(self, monkeypatch):
        blob = CompressedBlob.from_bytes(FUZZ["blocked-shared-huffman"][0])
        blob.container.get_section("block:2")
        calls = _count_checksums(monkeypatch)
        message = blob.export_block(2)
        assert len(calls) == 1  # the message header
        monkeypatch.undo()
        assert CompressedBlob.parse_block(message)[2] == blob.container.get_section("block:2")


# --------------------------------------------------------------------------- #
# The header codec
# --------------------------------------------------------------------------- #
_SETTINGS = settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])

_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-(1 << 63), (1 << 64) - 1),
    st.floats(allow_nan=False), st.text(max_size=12), st.sampled_from(NAMES),
    st.binary(max_size=24),
)
_values = st.recursive(
    _scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.dictionaries(st.one_of(st.text(max_size=8), st.sampled_from(NAMES)), inner, max_size=5),
    ),
    max_leaves=30,
)


@_SETTINGS
@given(data=st.binary(max_size=256))
def test_arbitrary_bytes_into_the_header_decoder_raise_only_encoding_error(data):
    try:
        header = decode_header(data)
    except EncodingError:
        return
    assert isinstance(header, dict)


@_SETTINGS
@given(flags=st.integers(0, 255), body=st.binary(max_size=256))
def test_arbitrary_bytes_after_a_v3_preamble_raise_only_encoding_error(flags, body):
    data = b"OCLT" + struct.pack("<IB", 3, flags) + body
    for parse in (SectionContainer.from_bytes, CompressedBlob.from_bytes,
                  CompressedBlob.parse_block):
        try:
            parse(data)
        except EncodingError:
            pass


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(header=st.dictionaries(st.text(max_size=8), _values, max_size=6))
def test_what_the_encoder_writes_the_decoder_reads_back(header):
    def normal(value):  # tuples are written as lists, bytearrays as bytes
        if isinstance(value, dict):
            return {k: normal(v) for k, v in value.items()}
        if isinstance(value, (list, tuple)):
            return [normal(v) for v in value]
        return value

    assert decode_header(encode_header(header)) == normal(header)


def test_table_names_take_one_or_two_bytes_and_others_are_spelled_out():
    assert len(set(NAMES)) == len(NAMES)
    assert len(encode_header({"payload": "deflate"})) == 3
    assert len(encode_header({"cache_key": None})) == 4
    assert encode_header({"x": "not-a-name"}) == b"\xa1\x61x\x6anot-a-name"
    with pytest.raises(EncodingError):
        encode_header({1: "key is not a string"})
    with pytest.raises(EncodingError):
        encode_header({"value": object()})
