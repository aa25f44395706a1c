"""Wire form of one encoding: predictor output <-> section bytes.

A block's :class:`PredictorOutput` becomes an inner
:class:`SectionContainer`: the quantisation codes — entropy-coded against
the file-wide model, against the block's own model, or stored raw —
followed by the escape indices, the literals and the predictor's aux
arrays; ``plan`` builds all but a rANS stream's bytes, which ``emit`` codes
a file at a time.  The ``entropy`` header key names the codec that wrote the
stream, so decode dispatches on what is stored, not on the reader's config.
:func:`pack_section` writes the section behind the lossless stage, whole or
split, and :func:`open_section` reads either.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ...errors import CompressionError, EncodingError
from ..encoders.huffman import (
    MAX_CODE_LENGTH, Histogram, HuffmanCodebook, HuffmanCodec, HuffmanStream, SyncedPayload,
    pooled_symbol_frequencies, symbol_frequencies,
)
from ..encoders.lossless import LosslessBackend, stored_backend
from ..encoders.rans import (
    MAX_TABLE_SYMBOLS, PROB_BITS, RansCodec, RansFrequencyTable, lane_limit, payload_head_size,
    quantize_frequencies,
)
from ..header import read_varint, write_varint
from ..interface import Checksummed, CompressedBlob, SectionContainer
from ..predictors.base import PredictorOutput

__all__ = [
    "ENTROPY_CODED", "ENTROPY_STAGES", "SPLIT_MIN_BYTES", "EncodingPlan", "EncodingWire",
    "SharedBook", "block_model_bytes", "estimated_bytes", "inflate_section", "open_section",
    "pack_section", "split_layout",
]

ENTROPY_STAGES = ("huffman", "rans", "none")

#: Stages that actually entropy-code the symbol stream (and can thus
#: participate in shared per-file codebooks).
ENTROPY_CODED = ("huffman", "rans")

#: A file-wide entropy model: a Huffman codebook or a rANS frequency
#: table, depending on the pipeline's configured stage.
SharedBook = Any


#: Coefficients of :func:`estimated_bytes` per entropy stage, in bytes:
#: per model entry and per aux array (its framing and predictor meta),
#: plus an escape's int64 index and float64 literal.  Fit to container
#: version 3 (dense Huffman books, rANS tables as gaps, binary headers) by
#: the bytes the ranking gives up against keeping the smaller of the real
#: sections, over 5 796 blocks (all seven applications, seeds 3 and 11, rel
#: 1e-4..1e-2, 16- and 32-blocks): 3 739 B, where the version 2 fit (2 B an
#: entry and 64 B an aux array for both codecs) gave up 7 303 B.  rANS is
#: charged what its 12-bit table codes the histogram at, not its entropy.
#: Table of what the ranking costs against encoding every candidate:
#: ARCHITECTURE.md, "Adaptive predictor selection".
_MODEL_BYTES_PER_SYMBOL = {"huffman": 0.75, "rans": 1.5}
_AUX_FRAME_BYTES = {"huffman": 32, "rans": 20}
_ESCAPE_BYTES = 16


def estimated_bytes(encoding: PredictorOutput, frequencies: Histogram, stage: str) -> float:
    """Size statistic of one candidate encoding under entropy ``stage``, from its
    code histogram.

    The bits the stage codes the histogram at — zeroth-order entropy, or a
    rANS table's cross-entropy — plus what the model, the escapes and the
    predictor's aux arrays add: the paper's own finding (Figs. 5-8) that
    the statistics of the quantisation bins predict compressed size, used
    to rank a block's candidates without serialising any of them.
    """
    row = stage if stage in _AUX_FRAME_BYTES else "huffman"
    counts = frequencies.counts.astype(np.float64)
    total = counts.sum()
    if row == "rans" and 0 < counts.size <= MAX_TABLE_SYMBOLS:
        bits = np.dot(counts, PROB_BITS - np.log2(quantize_frequencies(frequencies.counts)))
    else:
        bits = total * np.log2(total) - np.dot(counts, np.log2(counts)) if total else 0.0
    aux_bytes = sum(np.asarray(aux).nbytes + _AUX_FRAME_BYTES[row] for aux in encoding.aux.values())
    return (
        bits / 8
        + _MODEL_BYTES_PER_SYMBOL[row] * counts.size
        + _ESCAPE_BYTES * len(encoding.literals)
        + aux_bytes
    )


@dataclass
class EncodingPlan:
    """One encoding's section, codec and model decided; while ``pending`` holds a rANS
    stream's ``(codes, table)``, its ``codes_payload`` is a placeholder, to be coded in
    at most ``lanes`` lanes (the :func:`~..encoders.rans.lane_limit` of its file's plan)."""

    inner: SectionContainer
    lanes: int
    codec: str = "none"
    codebook: Optional[str] = None
    pending: Optional[Tuple[np.ndarray, RansFrequencyTable]] = None


class _HuffmanCoder:
    """Huffman row of the codec table: coding a stream is how a book is found to cover it."""

    model_type = HuffmanCodebook
    model_section = "codes_codebook"

    def __init__(self) -> None:
        self.codec = HuffmanCodec()

    def build_model(self, frequencies: Histogram) -> HuffmanCodebook:
        return HuffmanCodebook.from_frequencies(frequencies, max_length=MAX_CODE_LENGTH)

    def encode_shared(self, codes: np.ndarray, book: HuffmanCodebook) -> Optional[bytes]:
        return self.codec.encode_with_book(codes, book)

    encode_own = encode_shared


class _RansCoder:
    """rANS row of the codec table; no model = alphabet too wide for 12 bits.
    A stream's bytes are a placeholder that :meth:`EncodingWire.emit` fills."""

    model_type = RansFrequencyTable
    model_section = "codes_freqs"

    def __init__(self) -> None:
        self.codec = RansCodec()

    def build_model(self, frequencies: Histogram) -> Optional[RansFrequencyTable]:
        return RansFrequencyTable.try_from_frequencies(frequencies)

    def encode_shared(self, codes: np.ndarray, table: RansFrequencyTable) -> Optional[bytes]:
        return b"" if table.gather_freq_cum(codes) is not None else None

    def encode_own(self, codes: np.ndarray, table: RansFrequencyTable) -> bytes:
        return b""


class EncodingWire:
    """Serialise and parse encodings; owns one codec instance per stage."""

    def __init__(self) -> None:
        self._coders = {"huffman": _HuffmanCoder(), "rans": _RansCoder()}

    def pooled_shared_book(
        self, stage: str, encodings: Sequence[PredictorOutput]
    ) -> Optional[SharedBook]:
        """File-wide entropy model for ``stage`` from pooled symbol counts.

        ``None`` when there is nothing to model — or, for rANS, when the
        pooled alphabet cannot fit a 12-bit frequency table, in which
        case every block falls back to its own per-block model.
        """
        frequencies = pooled_symbol_frequencies([e.codes for e in encodings])
        if not frequencies.symbols.size:
            return None
        return self._coders[stage].build_model(frequencies)

    def plan(
        self,
        encoding: PredictorOutput,
        stage: str,
        shared_book: Optional[SharedBook] = None,
        histogram: Optional[Histogram] = None,
        blocks: int = 1,
    ) -> EncodingPlan:
        """Plan one encoding's section, one of a ``blocks``-block file's: all of it but
        a rANS stream's bytes.

        The plan's ``codec`` is the entropy codec the stream is *actually*
        written with (``huffman`` / ``rans`` / ``none``) and ``codebook``
        says whose model codes it: ``"shared"`` (the file-wide ``shared_book``,
        which lives once in the blob header — no per-block model section
        is written), ``"block"`` (the block's own, built here from its
        ``histogram``, counted here when the caller has none) or ``None``
        when nothing was entropy-coded.
        """
        plan = EncodingPlan(SectionContainer({"predictor_meta": encoding.meta}), lane_limit(blocks))
        inner = plan.inner
        codes = np.asarray(encoding.codes, dtype=np.int64)
        inner.header["num_codes"] = int(codes.size)
        if stage in ENTROPY_CODED and codes.size:
            self._entropy_code(plan, codes, stage, shared_book, histogram)
        else:
            inner.header["huffman_count"] = -1
            inner.add_array("codes_raw", _pack_codes(codes))
        mask = np.asarray(encoding.unpredictable_mask, dtype=bool)
        inner.add_array("escape_indices", np.flatnonzero(mask).astype(np.int64))
        inner.add_array("literals", np.asarray(encoding.literals, dtype=np.float64))
        inner.header["aux_names"] = sorted(encoding.aux)
        for aux_name in sorted(encoding.aux):
            inner.add_array(f"aux_{aux_name}", np.asarray(encoding.aux[aux_name]))
        return plan

    def emit(self, plans: Sequence[EncodingPlan]) -> None:
        """Write every pending rANS stream of ``plans`` into its section: one batch per
        lane limit, so one per file."""
        waiting: Dict[int, List[EncodingPlan]] = {}
        for plan in plans:
            if plan.pending is not None:
                waiting.setdefault(plan.lanes, []).append(plan)
        for lanes, group in waiting.items():
            payloads = RansCodec(lanes).encode_streams([p.pending for p in group])
            for plan, payload in zip(group, payloads):
                plan.inner.add_section("codes_payload", payload, overwrite=True)

    def _entropy_code(
        self,
        plan: EncodingPlan,
        codes: np.ndarray,
        stage: str,
        shared_book: Optional[SharedBook],
        histogram: Optional[Histogram],
    ) -> None:
        """Write ``codes_payload`` (+ the block's own model) and ``plan``'s codec and codebook.

        The stream is entropy-coded exactly once, against the shared model
        when it covers the block, else the block's own; rANS by :meth:`emit`.
        """
        inner, coder = plan.inner, self._coders[stage]
        payload = model = None
        if isinstance(shared_book, coder.model_type):
            payload = coder.encode_shared(codes, shared_book)
        plan.codec, plan.codebook = stage, "shared" if payload is not None else "block"
        if payload is None:
            histogram = histogram or symbol_frequencies(codes)
            model = coder.build_model(histogram)
            if model is None:
                # Alphabet too wide for a 12-bit rANS table: this block
                # degrades to Huffman (its entropy tag records what was
                # written, so it still decodes).
                return self._entropy_code(plan, codes, "huffman", shared_book, histogram)
            payload = coder.encode_own(codes, model)
        if stage == "rans":
            plan.pending = (codes, shared_book if model is None else model)
        inner.header["entropy"] = stage
        inner.header[f"{stage}_count"] = int(codes.size)
        inner.add_section("codes_payload", payload)
        if isinstance(payload, SyncedPayload):  # a Huffman stream of more than one lane
            # uint16 distances, all low bytes then all high bytes: the high
            # bytes barely vary, and laid out as one run the lossless stage
            # stores them in a few bytes (197 instead of 300 B per 127
            # entries under deflate).
            planes = payload.sync.astype("<u2").view(np.uint8).reshape(-1, 2).T
            inner.header["huffman_sync_every"] = payload.every
            inner.add_section("codes_sync", planes.tobytes())
        if model is None:
            inner.header[f"{stage}_shared"] = True
        else:
            inner.add_section(coder.model_section, model.serialize())

    def deserialize_all(
        self, inners: Sequence[SectionContainer], shared_codebook: Optional[bytes] = None
    ) -> List[tuple]:
        """``(codes, mask, literals, aux, meta)`` of every encoding of a file.

        All Huffman streams coded with one codebook — the file's shared
        one, usually — go to the codec as one batch, whose sync points
        fill the lanes of one lockstep decode; every rANS stream, each
        with its own table or the shared one, goes to one lockstep batch.
        """
        codes: List[Optional[np.ndarray]] = [None] * len(inners)
        batches: Dict[bytes, List[int]] = {}
        rans: Dict[int, Tuple[bytes, bytes, int]] = {}
        for i, inner in enumerate(inners):
            header = inner.header
            # Pre-rANS blobs carry no ``entropy`` key, only ``huffman_count``.
            entropy = header.get("entropy")
            if entropy is None and int(header.get("huffman_count", -1)) >= 0:
                entropy = "huffman"
            if entropy not in ENTROPY_CODED:
                codes[i] = np.asarray(inner.get_array("codes_raw"), dtype=np.int64)
                num_codes = int(header.get("num_codes", 0))
                if codes[i].size != num_codes:
                    raise CompressionError(
                        f"raw code stream has {codes[i].size} entries, expected {num_codes}"
                    )
                continue
            coder = self._coders[entropy]
            if header.get(f"{entropy}_shared"):
                if shared_codebook is None:
                    raise CompressionError(
                        f"block was encoded with a shared {entropy} model, "
                        "but the blob header carries none"
                    )
                model = shared_codebook
            else:
                model = inner.get_section(coder.model_section)
            if entropy == "huffman":
                if inner.source_version < 3:  # the book as older containers stored it
                    model = HuffmanCodebook.from_pairs(model).serialize()
                batches.setdefault(model, []).append(i)
            else:
                rans[i] = (inner.get_section("codes_payload"), model, int(header["rans_count"]))
        for model, members in batches.items():
            streams = [_huffman_stream(inners[i]) for i in members]
            decoded = self._coders["huffman"].codec.decode_streams(streams, model)
            for i, symbols in zip(members, decoded):
                codes[i] = symbols
        decoded = self._coders["rans"].codec.decode_streams(list(rans.values()))
        for i, symbols in zip(rans, decoded):
            codes[i] = symbols
        return [self._fields(inner, symbols) for inner, symbols in zip(inners, codes)]

    @staticmethod
    def _fields(inner: SectionContainer, codes: np.ndarray) -> tuple:
        """The decoded ``codes`` joined by the encoding's other sections."""
        header = inner.header
        num_codes = int(header.get("num_codes", 0))
        escape_indices = inner.get_array("escape_indices")
        mask = np.zeros(num_codes, dtype=bool)
        if escape_indices.size:
            mask[escape_indices] = True
        aux = {
            name: inner.get_array(f"aux_{name}") for name in header.get("aux_names", [])
        }
        return codes, mask, inner.get_array("literals"), aux, header.get("predictor_meta", {})


def block_model_bytes(blob: CompressedBlob, entries: Sequence[Dict[str, Any]]) -> Tuple[int, int]:
    """``(bytes, blocks)`` of the entropy models the ``entries``' blocks store themselves.

    A block coded against its own model carries it in its section; one
    coded against the file's shared model, or not entropy-coded, carries
    none.  Every named section is inflated and parsed to find out, so
    this is a debugging read (``ocelot inspect``), never a transfer path.
    """
    models = [coder.model_section for coder in (_HuffmanCoder, _RansCoder)]
    sizes = []
    for entry in entries:
        inner = open_section(blob, entry["section"])
        sizes += [inner.section_size(name) for name in models if name in inner.section_names()]
    return sum(sizes), len(sizes)


#: Split layout: deflate buys nothing on a long entropy-coded stream, so a
#: section whose ``codes_payload`` is at least ``SPLIT_MIN_BYTES`` and fails
#: the probe is a record — ``b"s"``, then LEB128 ``len(body)`` and ``head``
#: — then ``body``, which deflates the rest of the section followed by the
#: stream's first ``head`` bytes, then the stream's remainder as it is.  The
#: head is what deflate does shrink in a stream: a rANS payload's header and
#: lane states (:func:`~..encoders.rans.payload_head_size`); a Huffman stream
#: has none.  Container versions 1 and 2 wrote ``<cII`` records (``b"S"``,
#: deflated and stored lengths) with no head; those still read.  Any other
#: section is deflated whole: a zlib stream, whose first byte has 8 in its
#: low nibble, never ``s`` or ``S`` (nor is the container magic's ``O``).
#: Only deflate writes or reads a record.  The probe deflates
#: ``_PROBE_WINDOWS`` evenly spaced ``_PROBE_BYTES`` windows of the stream;
#: it is split unless they shrink by more than ``_PROBE_MIN_SAVING``.
#: Blob bytes against the whole layout, REL 1e-3, 32-blocks, shared or not,
#: adaptive or not (``tests/test_section_layout.py --table``):
#:
#:   application  huffman          rans
#:   miranda      -0.48..-0.26 %   -0.77..-0.41 %
#:   nyx          -0.45..-0.11 %   -0.99..-0.72 %
#:   isabel       -0.82..-0.35 %   -0.97..-0.28 %
#:   qmcpack       0               -1.10..-0.22 %  (long runs of 1-bit zero codes:
#:   rtm           0               -0.22..+0.29 %   deflate still shrinks those)
#:   cesm, hacc    0                0              (2-D / 1-D blocks: short streams)
SPLIT_MIN_BYTES = 4096
_PROBE_WINDOWS, _PROBE_BYTES, _PROBE_MIN_SAVING = 4, 1024, 0.01
_SPLIT_TAG = b"s"
_SPLIT_V2 = struct.Struct("<cII")


def pack_section(lossless: LosslessBackend, inner: SectionContainer) -> Callable[[], bytes]:
    """``inner``'s trip through the lossless stage, split or whole: the one way a section
    is written.  Its containers are serialised here; the returned call runs the probe,
    the deflate and the checksum the blob stores, which release the GIL (work for the
    helper lane, if any)."""
    whole = inner.to_bytes()
    stream = inner.get_section("codes_payload") if "entropy" in inner.header else b""
    if lossless.name != "deflate" or len(stream) < SPLIT_MIN_BYTES:
        return partial(_checksummed, lossless.compress, whole)
    side = SectionContainer(inner.header)
    for name in (name for name in inner.section_names() if name != "codes_payload"):
        side.add_section(name, inner.get_section(name))
    head = payload_head_size(stream) if inner.header["entropy"] == "rans" else 0
    split = partial(_split_or_whole, lossless.compress, whole, side.to_bytes(), stream, head)
    return partial(_checksummed, split)


def _checksummed(write: Callable[..., bytes], *args: Any) -> Checksummed:
    return Checksummed.of(write(*args))


def _split_or_whole(
    compress: Callable, whole: bytes, side: bytes, stream: bytes, head: int
) -> bytes:
    """Whole if the probe of ``stream`` says deflate shrinks it, else split."""
    step = (len(stream) - _PROBE_BYTES) // (_PROBE_WINDOWS - 1)
    probe = b"".join(stream[i * step : i * step + _PROBE_BYTES] for i in range(_PROBE_WINDOWS))
    if len(zlib.compress(probe)) < len(probe) * (1 - _PROBE_MIN_SAVING):
        return compress(whole)
    body = compress(side + stream[:head])
    record = bytearray(_SPLIT_TAG)
    write_varint(record, len(body))
    write_varint(record, head)
    return b"".join([record, body, stream[head:]])


def split_layout(section: bytes) -> Optional[Tuple[int, int, int]]:
    """A deflate-stage section's ``(body start, body end, head)`` if it is split (the
    stream's first ``head`` bytes end the body, the rest follows it), else ``None``."""
    if section[:1] == _SPLIT_TAG:
        size, start = read_varint(section, 1)
        head, start = read_varint(section, start)
        end = start + size
    elif section[:1] == b"S":  # written by container versions 1 and 2
        if len(section) < _SPLIT_V2.size:
            raise EncodingError("split section is cut inside its layout record")
        _, size, stored = _SPLIT_V2.unpack_from(section)
        start, end, head = _SPLIT_V2.size, _SPLIT_V2.size + size, 0
        if end + stored != len(section):
            raise EncodingError("split section is truncated or its layout record garbled")
    else:
        return None
    if end > len(section):
        raise EncodingError("split section is truncated or its layout record garbled")
    return start, end, head


def inflate_section(blob: CompressedBlob, name: str) -> Tuple[bytes, Optional[bytes]]:
    """``blob``'s section ``name``, checked against its checksum and out of the lossless
    stage: the inner container's bytes and, split, the stored stream.
    :func:`open_section`'s GIL-free half, for the lane."""
    lossless = stored_backend(blob.container.header.get("lossless_backend", "deflate"))
    section = blob.container.get_section(name)
    layout = split_layout(section) if lossless.name == "deflate" else None
    if layout is None:
        return lossless.decompress(section), None
    start, end, head = layout
    body = lossless.decompress(section[start:end])
    cut = len(body) - head
    if cut < 0:
        raise EncodingError(f"split section {name!r} holds less than its stream head")
    return body[:cut], body[cut:] + section[end:]


def open_section(blob: CompressedBlob, name: str, raw: Optional[tuple] = None) -> SectionContainer:
    """``blob``'s section ``name`` parsed, in either layout, from its :func:`inflate_section`
    (run here unless ``raw`` holds it): the one way a section is read."""
    data, stored = inflate_section(blob, name) if raw is None else raw
    inner = SectionContainer.from_bytes(data)
    if stored is not None:
        inner.add_section("codes_payload", stored)
    return inner


def _huffman_stream(inner: SectionContainer) -> HuffmanStream:
    """The Huffman stream of one encoding, with its sync index when stored."""
    header = inner.header
    payload, count = inner.get_section("codes_payload"), int(header["huffman_count"])
    if "huffman_sync_every" not in header:
        return HuffmanStream(payload, count)  # older builds, or a stream of one lane
    planes = np.frombuffer(inner.get_section("codes_sync"), dtype=np.uint8)
    if planes.size % 2:
        raise EncodingError("Huffman sync index ends inside an entry")
    low, high = planes.reshape(2, -1).astype(np.intp)
    return HuffmanStream(payload, count, low | (high << 8), int(header["huffman_sync_every"]))


def _pack_codes(codes: np.ndarray) -> np.ndarray:
    """Store raw codes with the narrowest integer dtype that fits."""
    if codes.size == 0:
        return codes.astype(np.int8)
    lo = int(codes.min())
    hi = int(codes.max())
    for dtype in (np.int8, np.int16, np.int32, np.int64):
        info = np.iinfo(dtype)
        if lo >= info.min and hi <= info.max:
            return codes.astype(dtype)
    return codes
