"""The split section layout: what it writes, who reads it, what it costs in bytes.

A block section whose entropy-coded ``codes_payload`` is at least
``SPLIT_MIN_BYTES`` long, and that a deflate probe cannot shrink, is
written split: its layout record, the rest of the section deflated (with
a rANS stream's header and lane states), then the rest of the stream
stored as it is.  Every other section is deflated whole, the
bytes older builds wrote for every section.  Here:

* blocks of 32^3, every payload >= 4 KiB, round-trip through every
  entropy-coded pipeline x codec x codebook mode x lossless backend;
* a Miranda block is stored split, a mostly-zero (RTM-like) block keeps
  its stream deflated;
* a truncated split section, or one whose layout record is garbled, ends
  in :class:`EncodingError` on every read path, and a whole-layout blob
  still decodes;
* pinned rows of one 64x64x32 field: blob length, which sections are
  split, a digest of the stored streams (entropy-coded bytes, which no
  zlib build moves) and of the decoded array;
* the size matrix: on the seven applications of
  ``tests/test_adaptive_selector.py`` x codec x codebook mode x adaptive
  or not, at REL 1e-3 in 32-blocks, no blob is more than 0.5 % larger
  than the whole layout writes (``SPLIT_MIN_BYTES`` raised past every
  stream), and Miranda, Nyx and Isabel blobs are smaller in every cell.

``python tests/test_section_layout.py --table`` prints the size matrix
and fresh pinned rows.
"""

from __future__ import annotations

import hashlib
import sys
from contextlib import contextmanager
from typing import Dict, Iterator, List, Tuple

import numpy as np
import pytest

from repro.compression import CompressedBlob, ErrorBound, create_blocked_compressor
from repro.compression.sz import encoding
from repro.compression.header import read_varint, write_varint
from repro.compression.sz.encoding import SPLIT_MIN_BYTES, open_section, split_layout
from repro.compression.sz.pipeline import PipelineConfig, PredictionPipelineCompressor
from repro.core.parallel import HelperLane
from repro.errors import EncodingError
from test_adaptive_selector import SCALES, _field

CODED_PIPELINES = ("sz3", "sz3-linear", "sz2", "sz-lorenzo", "zfp-like")
STAGES = ("huffman", "rans")
MODES = {"shared": True, "per-block": False}
BACKENDS = ("deflate", "raw")
REL = ErrorBound.relative(1e-3)
#: The bound :func:`walk_field` is coded at.
BOUND = ErrorBound(value=1e-3, mode="abs")
#: Cells may grow by this fraction over the whole layout, and no more.
MAX_GROWTH = 0.005
#: Applications whose 32-blocks carry long streams deflate cannot shrink.
SHRINKING = ("miranda", "nyx", "isabel")
#: One lane for the module: its thread outlives the tests that use it.
LANE = HelperLane("section-layout-lane")


def walk_field() -> np.ndarray:
    """A 64x64x32 float32 field: a 3-D random walk beside a near-constant half.

    Built from bounded integers and divisions by powers of two, so no
    transcendental or float-sampling routine sits between the seed and
    the bytes.  The walk's 32^3 blocks code to long streams deflate
    cannot shrink; the other half's codes are nearly all zero, a stream
    of 1-bit codes that deflate still shrinks.
    """
    steps = np.random.default_rng(2023).integers(-(1 << 15), 1 << 15, size=(64, 64, 32))
    field = np.cumsum(np.cumsum(np.cumsum(steps, 0), 1), 2) / 2.0**20
    field[:, 32:] = field[:, 32:] / 2.0**16
    return field.astype(np.float32)


def _pipeline(name: str, stage: str, shared: bool, lossless: str = "deflate"):
    blocked = create_blocked_compressor(name, block_shape=32, shared_codebook=shared)
    return PredictionPipelineCompressor(
        blocked.predictor,
        PipelineConfig(entropy_stage=stage, lossless_backend=lossless),
        name=blocked.name,
        block_shape=32,
        shared_codebook=shared,
    )


def _layouts(blob: CompressedBlob) -> Dict[str, Tuple[bool, int]]:
    """Each stored section's ``(split, stream bytes)``."""
    deflate = blob.container.header["lossless_backend"] == "deflate"
    return {
        name: (
            deflate and split_layout(blob.container.get_section(name)) is not None,
            len(open_section(blob, name).get_section("codes_payload")),
        )
        for name in dict.fromkeys(entry["section"] for entry in blob.block_index)
    }


@contextmanager
def whole_layout() -> Iterator[None]:
    """Every section deflated whole, as older builds wrote it."""
    saved = encoding.SPLIT_MIN_BYTES
    encoding.SPLIT_MIN_BYTES = 1 << 40
    try:
        yield
    finally:
        encoding.SPLIT_MIN_BYTES = saved


# --------------------------------------------------------------------------- #
# Round trip
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("lossless", BACKENDS)
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("stage", STAGES)
@pytest.mark.parametrize("name", CODED_PIPELINES)
def test_long_blocks_round_trip(name, stage, mode, lossless):
    data = walk_field()[:, :32]
    compressor = _pipeline(name, stage, MODES[mode], lossless)
    bound = REL.absolute_for(data)
    blob = compressor.compress(data, ErrorBound(value=bound, mode="abs")).blob
    layouts = _layouts(blob)
    assert len(layouts) == 2 and all(size >= SPLIT_MIN_BYTES for _, size in layouts.values())
    # Only deflate splits a section, and behind it these streams are split
    # but for zfp-like's under rANS, ~2 % of which deflate still takes.
    split = lossless == "deflate" and (name, stage) != ("zfp-like", "rans")
    assert {is_split for is_split, _ in layouts.values()} == {split}
    parsed = CompressedBlob.from_bytes(blob.to_bytes())
    recon = compressor.decompress(parsed)
    assert np.abs(recon.astype(np.float64) - data).max() <= bound
    np.testing.assert_array_equal(compressor.decompress_block(parsed, 1), recon[32:])


# --------------------------------------------------------------------------- #
# Which layout a block takes
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("stage", STAGES)
def test_a_miranda_block_stores_its_stream_as_it_is(stage):
    block = _field("miranda")[:32, :32, :32]
    blob = _pipeline("sz3", stage, True).compress(block, REL).blob
    ((split, size),) = _layouts(blob).values()
    assert split and size >= SPLIT_MIN_BYTES


@pytest.mark.parametrize("stage", STAGES)
def test_a_mostly_zero_block_keeps_its_stream_deflated(stage):
    block = _field("rtm")[:32, :32, :32]
    blob = _pipeline("sz3", stage, True).compress(block, REL).blob
    ((split, size),) = _layouts(blob).values()
    assert not split and size >= SPLIT_MIN_BYTES  # probed, and deflate won
    with whole_layout():
        whole = _pipeline("sz3", stage, True).compress(block, REL).blob
    assert whole.to_bytes() == blob.to_bytes()


def test_uncoded_sections_never_split():
    data = walk_field()[:, :32]
    blob = _pipeline("sz3", "none", True).compress(data, BOUND).blob
    with whole_layout():
        whole = _pipeline("sz3", "none", True).compress(data, BOUND).blob
    assert blob.to_bytes() == whole.to_bytes()


# --------------------------------------------------------------------------- #
# Damaged sections, and sections older builds wrote
# --------------------------------------------------------------------------- #
DAMAGE = ("truncated", "cut inside the record", "tag", "deflated length", "head length")


def _varint(n: int) -> bytes:
    out = bytearray()
    write_varint(out, n)
    return bytes(out)


def _damaged(section: bytes, damage: str) -> bytes:
    size, at = read_varint(section, 1)
    head, start = read_varint(section, at)
    return {
        "truncated": section[:-1],
        "cut inside the record": section[:2],
        "tag": b"\x00" + section[1:],
        "deflated length": section[:1] + _varint(7) + section[at:],
        "head length": section[:at] + _varint(head + 1) + section[start:],
    }[damage]


@pytest.mark.parametrize("lane", [False, True], ids=["inline", "helper-lane"])
@pytest.mark.parametrize("damage", DAMAGE)
def test_a_damaged_split_section_is_an_encoding_error(damage, lane):
    data = walk_field()[:, :32]
    compressor = _pipeline("sz3", "rans", False)
    payload = compressor.compress(data, BOUND).blob.to_bytes()
    blob = CompressedBlob.from_bytes(payload)
    section = blob.container.get_section("block:1")
    assert section[:1] == b"s"
    blob.container.add_section("block:1", _damaged(section, damage), overwrite=True)
    blob = CompressedBlob.from_bytes(blob.to_bytes())
    if lane:
        compressor.configure_blocks(helper_lane=LANE)
    with pytest.raises(EncodingError):
        compressor.decompress(blob, compressor.inflate_sections(blob))
    with pytest.raises(EncodingError):
        compressor.decompress_block(blob, 1)
    np.testing.assert_array_equal(
        compressor.decompress_block(blob, 0),
        compressor.decompress(CompressedBlob.from_bytes(payload))[:32],
    )


@pytest.mark.parametrize("stage", STAGES)
def test_a_whole_layout_blob_decodes_to_the_same_array(stage):
    data = walk_field()
    compressor = _pipeline("sz3", stage, False)
    with whole_layout():
        whole = compressor.compress(data, BOUND).blob.to_bytes()
    split = compressor.compress(data, BOUND).blob.to_bytes()
    assert len(split) < len(whole)
    reader = create_blocked_compressor("sz3", block_shape=32)
    np.testing.assert_array_equal(
        reader.decompress(CompressedBlob.from_bytes(whole)),
        reader.decompress(CompressedBlob.from_bytes(split)),
    )


# --------------------------------------------------------------------------- #
# Pinned rows
# --------------------------------------------------------------------------- #
def _digest(data: bytes) -> str:
    return hashlib.blake2b(data, digest_size=8).hexdigest()


def pinned_row(stage: str, mode: str) -> Dict[str, object]:
    """One row of :data:`PINNED`, written fresh."""
    compressor = _pipeline("sz3", stage, MODES[mode])
    blob = compressor.compress(walk_field(), BOUND).blob
    split = [name for name, (is_split, _) in _layouts(blob).items() if is_split]
    stored = b"".join(
        open_section(blob, name).get_section("codes_payload") for name in split
    )
    decoded = np.ascontiguousarray(compressor.decompress(blob))
    return {
        "nbytes": len(blob.to_bytes()),
        "split": split,
        "stored": _digest(stored),
        "decoded": _digest(decoded.tobytes()),
    }


#: ``(stage, mode)`` -> the row :func:`pinned_row` writes at an absolute
#: bound of 1e-3.  The walk's two blocks split and the near-constant
#: half's two keep their deflated stream, except under the shared rANS
#: table: pooled with the near-constant half it is so skewed towards zero
#: that the walk's streams double in length and deflate shrinks them too.
PINNED: Dict[Tuple[str, str], Dict[str, object]] = {
    ("huffman", "shared"): {"nbytes": 84866, "split": ["block:0", "block:2"],
                            "stored": "9e9e148d8188adc5", "decoded": "7669ddbddb666fb4"},
    ("huffman", "per-block"): {"nbytes": 77063, "split": ["block:0", "block:2"],
                               "stored": "85acf5371af9e813", "decoded": "7669ddbddb666fb4"},
    ("rans", "shared"): {"nbytes": 85633, "split": [],
                         "stored": "e4a6a0577479b2b4", "decoded": "7669ddbddb666fb4"},
    ("rans", "per-block"): {"nbytes": 80577, "split": ["block:0", "block:2"],
                            "stored": "2f8be097c78fc81a", "decoded": "7669ddbddb666fb4"},
}


@pytest.mark.parametrize("key", list(PINNED), ids="-".join)
def test_pinned_rows(key):
    assert pinned_row(*key) == PINNED[key]


# --------------------------------------------------------------------------- #
# Size matrix
# --------------------------------------------------------------------------- #
def size_cells(app: str) -> List[Tuple[str, str, bool, int, int]]:
    """``(stage, mode, adaptive, whole bytes, bytes)`` of every cell of one application."""
    data = _field(app)
    cells = []
    for stage in STAGES:
        for mode, shared in MODES.items():
            for adaptive in (False, True):
                def size() -> int:
                    compressor = create_blocked_compressor(
                        "sz3", block_shape=32, entropy_stage=stage, shared_codebook=shared,
                        adaptive_predictor=adaptive,
                    )
                    return len(compressor.compress(data, REL).blob.to_bytes())

                with whole_layout():
                    whole = size()
                cells.append((stage, mode, adaptive, whole, size()))
    return cells


@pytest.mark.parametrize("app", list(SCALES))
def test_no_blob_grows_more_than_half_a_percent(app):
    cells = size_cells(app)
    grown = [cell for cell in cells if cell[4] > cell[3] * (1 + MAX_GROWTH)]
    assert grown == []
    if app in SHRINKING:
        assert all(new < whole for *_, whole, new in cells)


def main(argv: List[str]) -> None:
    if argv != ["--table"]:
        raise SystemExit("usage: python tests/test_section_layout.py --table")
    print(f"{'app':9} {'codec':8} {'mode':10} {'adaptive':9} {'whole B':>9} {'split B':>9} change")
    for app in SCALES:
        for stage, mode, adaptive, whole, new in size_cells(app):
            change = 100.0 * (new - whole) / whole
            cell = f"{app:9} {stage:8} {mode:10} {str(adaptive):9}"
            print(f"{cell} {whole:9} {new:9} {change:+.2f} %")
    print("\nPINNED = {")
    for stage in STAGES:
        for mode in MODES:
            print(f"    ({stage!r}, {mode!r}): {pinned_row(stage, mode)!r},")
    print("}")


if __name__ == "__main__":
    main(sys.argv[1:])
