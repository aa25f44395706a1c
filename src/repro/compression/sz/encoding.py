"""Wire form of one encoding: predictor output <-> section bytes.

A block's :class:`PredictorOutput` becomes an inner
:class:`SectionContainer`: the quantisation codes — entropy-coded against
the file-wide model, against the block's own model, or stored raw —
followed by the escape indices, the literals and the predictor's aux
arrays.  The section header's ``entropy`` key names the codec that wrote
the stream, so decode dispatches on what is stored, never on the reader's
configuration.
"""

from __future__ import annotations

from contextlib import AbstractContextManager
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ...errors import CompressionError, EncodingError
from ..encoders.huffman import (
    MAX_CODE_LENGTH,
    HuffmanCodebook,
    HuffmanCodec,
    HuffmanStream,
    SyncedPayload,
    pooled_symbol_frequencies,
    symbol_frequencies,
)
from ..encoders.lossless import get_lossless_backend
from ..encoders.rans import RansCodec, RansFrequencyTable
from ..interface import CompressedBlob, SectionContainer
from ..predictors.base import PredictorOutput

__all__ = [
    "ENTROPY_CODED", "ENTROPY_STAGES", "EncodingWire", "SharedBook", "block_model_bytes",
    "estimated_bytes",
]

ENTROPY_STAGES = ("huffman", "rans", "none")

#: Stages that actually entropy-code the symbol stream (and can thus
#: participate in shared per-file codebooks).
ENTROPY_CODED = ("huffman", "rans")

#: A file-wide entropy model: a Huffman codebook or a rANS frequency
#: table, depending on the pipeline's configured stage.
SharedBook = Any


#: Coefficients of :func:`estimated_bytes`, in bytes per unit, read off
#: what blocks cost *after* the deflate stage (least squares over 25 398
#: candidate encodings of all seven applications at rel 1e-4..1e-2,
#: 16- and 32-blocks, both codecs): the coded stream lands on its
#: zeroth-order entropy (coefficient 1.02-1.10 on the entropy, -0.08 on
#: the exact Huffman bit count), a model entry deflates to 2.0-2.4 B (16 B
#: raw for Huffman, 6 B for rANS), an escape is an int64 index plus a
#: float64 literal, and an aux array drags ~130 characters of section
#: framing and predictor meta into the JSON header.  Table of what the
#: ranking costs against encoding every candidate: ARCHITECTURE.md,
#: "Adaptive predictor selection".
_MODEL_BYTES_PER_SYMBOL = 2
_ESCAPE_BYTES = 16
_AUX_FRAME_BYTES = 64


def estimated_bytes(encoding: PredictorOutput, frequencies: Dict[int, int]) -> float:
    """Size statistic of one candidate encoding, from its code histogram.

    Zeroth-order entropy of the quantisation codes plus what the model,
    the escapes and the predictor's aux arrays add: the paper's own
    finding (Figs. 5-8) that the statistics of the quantisation bins
    predict compressed size, used to rank a block's candidates without
    serialising any of them.
    """
    counts = np.fromiter(frequencies.values(), dtype=np.float64, count=len(frequencies))
    total = counts.sum()
    entropy_bits = total * np.log2(total) - np.dot(counts, np.log2(counts)) if total else 0.0
    aux_bytes = sum(np.asarray(aux).nbytes + _AUX_FRAME_BYTES for aux in encoding.aux.values())
    return (
        entropy_bits / 8
        + _MODEL_BYTES_PER_SYMBOL * len(frequencies)
        + _ESCAPE_BYTES * len(encoding.literals)
        + aux_bytes
    )


class _HuffmanCoder:
    """Huffman row of the codec table."""

    model_type = HuffmanCodebook
    model_section = "codes_codebook"

    def __init__(self) -> None:
        self.codec = HuffmanCodec()

    def build_model(self, frequencies: Dict[int, int]) -> HuffmanCodebook:
        return HuffmanCodebook.from_frequencies(frequencies, max_length=MAX_CODE_LENGTH)

    def encode(self, codes: np.ndarray, model: HuffmanCodebook) -> Optional[bytes]:
        return self.codec.encode_with_book(codes, model)


class _RansCoder:
    """rANS row of the codec table; no model = alphabet too wide for 12 bits."""

    model_type = RansFrequencyTable
    model_section = "codes_freqs"

    def __init__(self) -> None:
        self.codec = RansCodec()

    def build_model(self, frequencies: Dict[int, int]) -> Optional[RansFrequencyTable]:
        return RansFrequencyTable.try_from_frequencies(frequencies)

    def encode(self, codes: np.ndarray, model: RansFrequencyTable) -> Optional[bytes]:
        return self.codec.encode_with_table(codes, model)


class EncodingWire:
    """Serialise and parse encodings; owns one codec instance per stage.

    ``timed(stage)`` is the pipeline's stage-timing context manager (the
    entropy coders run inside ``timed("entropy_s")``).
    """

    def __init__(self, timed: Callable[[str], AbstractContextManager]) -> None:
        self._timed = timed
        self._coders = {"huffman": _HuffmanCoder(), "rans": _RansCoder()}

    def pooled_shared_book(
        self, stage: str, encodings: Sequence[PredictorOutput], weights: Sequence[int]
    ) -> Optional[SharedBook]:
        """File-wide entropy model for ``stage`` from pooled symbol counts.

        ``None`` when there is nothing to model — or, for rANS, when the
        pooled alphabet cannot fit a 12-bit frequency table, in which
        case every block falls back to its own per-block model.
        """
        frequencies = pooled_symbol_frequencies([e.codes for e in encodings], weights)
        if not frequencies:
            return None
        return self._coders[stage].build_model(frequencies)

    def serialize(
        self,
        encoding: PredictorOutput,
        stage: str,
        shared_book: Optional[SharedBook] = None,
        histogram: Optional[Dict[int, int]] = None,
    ) -> Tuple[bytes, str, Optional[str]]:
        """Serialise one encoding; returns ``(bytes, codec, codebook)``.

        ``codec`` is the entropy codec the stream was *actually* written
        with (``huffman`` / ``rans`` / ``none``) and ``codebook`` says
        whose model coded it: ``"shared"`` (the file-wide ``shared_book``,
        which lives once in the blob header — no per-block model section
        is written), ``"block"`` (the block's own, built here from its
        ``histogram``, counted here when the caller has none) or ``None``
        when nothing was entropy-coded.
        """
        inner = SectionContainer(header={"predictor_meta": encoding.meta})
        codes = np.asarray(encoding.codes, dtype=np.int64)
        inner.header["num_codes"] = int(codes.size)
        codec, codebook = "none", None
        if stage in ENTROPY_CODED and codes.size:
            with self._timed("entropy_s"):
                codec, codebook = self._entropy_code(inner, codes, stage, shared_book, histogram)
        else:
            inner.header["huffman_count"] = -1
            inner.add_array("codes_raw", _pack_codes(codes))
        mask = np.asarray(encoding.unpredictable_mask, dtype=bool)
        inner.add_array("escape_indices", np.flatnonzero(mask).astype(np.int64))
        inner.add_array("literals", np.asarray(encoding.literals, dtype=np.float64))
        inner.header["aux_names"] = sorted(encoding.aux)
        for aux_name in sorted(encoding.aux):
            inner.add_array(f"aux_{aux_name}", np.asarray(encoding.aux[aux_name]))
        return inner.to_bytes(), codec, codebook

    def _entropy_code(
        self,
        inner: SectionContainer,
        codes: np.ndarray,
        stage: str,
        shared_book: Optional[SharedBook],
        histogram: Optional[Dict[int, int]],
    ) -> Tuple[str, str]:
        """Write ``codes_payload`` (+ the block's own model); ``(codec, codebook)``.

        The stream is entropy-coded exactly once: against the shared
        model when it covers the block, else against the block's own.
        """
        coder = self._coders[stage]
        payload = model = None
        if isinstance(shared_book, coder.model_type):
            payload = coder.encode(codes, shared_book)
        codebook = "shared" if payload is not None else "block"
        if payload is None:
            histogram = histogram or symbol_frequencies(codes)
            model = coder.build_model(histogram)
            if model is None:
                # Alphabet too wide for a 12-bit rANS table: this block
                # degrades to Huffman (its entropy tag records what was
                # written, so it still decodes).
                return self._entropy_code(inner, codes, "huffman", shared_book, histogram)
            payload = coder.encode(codes, model)
            if payload is None:  # pragma: no cover - the model was built from these codes
                raise CompressionError(f"{stage} escape against the block's own model")
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
        return stage, codebook

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
    backend = get_lossless_backend(blob.container.header.get("lossless_backend", ""))
    models = [coder.model_section for coder in (_HuffmanCoder, _RansCoder)]
    sizes = []
    for entry in entries:
        inner = SectionContainer.from_bytes(
            backend.decompress(blob.container.get_section(entry["section"]))
        )
        sizes += [inner.section_size(name) for name in models if name in inner.section_names()]
    return sum(sizes), len(sizes)


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
