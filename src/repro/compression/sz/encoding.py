"""Wire form of one encoding: predictor output <-> section bytes.

A block's (or a whole array's) :class:`PredictorOutput` becomes an inner
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
from ..encoders.rans import RansCodec, RansFrequencyTable
from ..interface import SectionContainer
from ..predictors.base import PredictorOutput

__all__ = ["ENTROPY_CODED", "ENTROPY_STAGES", "EncodingWire", "SharedBook"]

ENTROPY_STAGES = ("huffman", "rans", "none")

#: Stages that actually entropy-code the symbol stream (and can thus
#: participate in shared per-file codebooks / per-block codec choice).
ENTROPY_CODED = ("huffman", "rans")

#: A file-wide entropy model: a Huffman codebook or a rANS frequency
#: table, depending on the pipeline's configured stage.
SharedBook = Any


class _HuffmanCoder:
    """Huffman row of the codec table."""

    model_type = HuffmanCodebook
    model_section = "codes_codebook"

    def __init__(self) -> None:
        self.codec = HuffmanCodec()

    def build_model(self, frequencies: Dict[int, int]) -> HuffmanCodebook:
        return HuffmanCodebook.from_frequencies(frequencies, max_length=MAX_CODE_LENGTH)

    def encode_shared(self, codes: np.ndarray, model: HuffmanCodebook) -> Optional[bytes]:
        return self.codec.encode_with_book(codes, model)

    def encode_own(self, codes: np.ndarray) -> Tuple[bytes, bytes]:
        payload, codebook, _ = self.codec.encode(codes)
        return payload, codebook


class _RansCoder:
    """rANS row of the codec table; ``None`` = alphabet too wide for 12 bits."""

    model_type = RansFrequencyTable
    model_section = "codes_freqs"

    def __init__(self) -> None:
        self.codec = RansCodec()

    def build_model(self, frequencies: Dict[int, int]) -> Optional[RansFrequencyTable]:
        return RansFrequencyTable.try_from_frequencies(frequencies)

    def encode_shared(self, codes: np.ndarray, model: RansFrequencyTable) -> Optional[bytes]:
        return self.codec.encode_with_table(codes, model)

    def encode_own(self, codes: np.ndarray) -> Optional[Tuple[bytes, bytes]]:
        table = self.build_model(symbol_frequencies(codes))
        if table is None:
            return None
        payload = self.codec.encode_with_table(codes, table)
        if payload is None:  # pragma: no cover - own table
            raise CompressionError("rANS escape against the block's own table")
        return payload, table.serialize()


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

    def smaller_codec(self, codes: np.ndarray) -> str:
        """The codec whose exact serialised-size estimate is smaller.

        rANS bows out (``None`` estimate) when the block's alphabet
        cannot fit a 12-bit frequency table.
        """
        symbols = np.asarray(codes, dtype=np.int64)
        if symbols.size == 0:
            return "huffman"
        rans_size = self._coders["rans"].codec.estimate_encoded_bytes(symbols)
        if rans_size is None:
            return "huffman"
        huffman_size = self._coders["huffman"].codec.estimate_encoded_bytes(symbols)
        return "rans" if rans_size < huffman_size else "huffman"

    def serialize(
        self,
        encoding: PredictorOutput,
        stage: str,
        shared_book: Optional[SharedBook] = None,
    ) -> Tuple[bytes, str, Optional[str]]:
        """Serialise one encoding; returns ``(bytes, codec, codebook)``.

        ``codec`` is the entropy codec the stream was *actually* written
        with (``huffman`` / ``rans`` / ``none``) and ``codebook`` says
        whose model coded it: ``"shared"`` (the file-wide ``shared_book``,
        which lives once in the blob header — no per-block model section
        is written), ``"block"`` (the block's own, e.g. because its
        alphabet escaped the shared one) or ``None`` when nothing was
        entropy-coded.
        """
        inner = SectionContainer(header={"predictor_meta": encoding.meta})
        codes = np.asarray(encoding.codes, dtype=np.int64)
        inner.header["num_codes"] = int(codes.size)
        codec, codebook = "none", None
        if stage in ENTROPY_CODED and codes.size:
            with self._timed("entropy_s"):
                codec, codebook = self._entropy_code(inner, codes, stage, shared_book)
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
    ) -> Tuple[str, str]:
        """Write ``codes_payload`` (+ the block's own model); ``(codec, codebook)``."""
        coder = self._coders[stage]
        payload = model = None
        if isinstance(shared_book, coder.model_type):
            payload = coder.encode_shared(codes, shared_book)
        codebook = "shared" if payload is not None else "block"
        if payload is None:
            own = coder.encode_own(codes)
            if own is None:
                # Alphabet too wide for a 12-bit rANS table: this block
                # degrades to Huffman (its entropy tag records what was
                # written, so it still decodes).
                return self._entropy_code(inner, codes, "huffman", shared_book)
            payload, model = own
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
            inner.add_section(coder.model_section, model)
        return stage, codebook

    def deserialize(self, inner: SectionContainer, shared_codebook: Optional[bytes] = None):
        """``(codes, mask, literals, aux, meta)`` of a serialised encoding."""
        return self.deserialize_all([inner], shared_codebook)[0]

    def deserialize_all(
        self, inners: Sequence[SectionContainer], shared_codebook: Optional[bytes] = None
    ) -> List[tuple]:
        """:meth:`deserialize` for every encoding of a file, entropy stage batched.

        All Huffman streams coded with one codebook — the file's shared
        one, usually — go to the codec as one batch, whose sync points
        fill the lanes of one lockstep decode.
        """
        codes: List[Optional[np.ndarray]] = [None] * len(inners)
        batches: Dict[bytes, List[int]] = {}
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
                codes[i] = coder.codec.decode(
                    inner.get_section("codes_payload"), model, int(header[f"{entropy}_count"])
                )
        for model, members in batches.items():
            streams = [_huffman_stream(inners[i]) for i in members]
            decoded = self._coders["huffman"].codec.decode_streams(streams, model)
            for i, symbols in zip(members, decoded):
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
