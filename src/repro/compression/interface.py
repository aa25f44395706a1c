"""Compressor interfaces and the on-the-wire compressed blob format.

A :class:`CompressedBlob` is a self-describing byte container: a header
(compressor name, shape, dtype, error bound, per-section sizes) followed
by named binary sections.  The blob is what Ocelot writes to the source
endpoint's filesystem, groups into archives, transfers over the
simulated WAN, and decompresses at the destination.

Every blob is a *block plan*: the array cut into independently decodable
blocks, one section each, listed by a ``block_index`` in the header.
One rule covers the plan of one block: **a blob stores its block index
only when it has more than one block.**  A one-block blob leaves unsaid
what its header already says — its block is the array, coded by the
header's ``predictor`` into the section named ``payload`` — and readers
imply that entry (:attr:`CompressedBlob.block_index`).  That is the
layout container version 1 wrote for every array, so those blobs parse
as what they are; a one-block blob that does store its index (older
version-2 writers did) parses like any other.
"""

from __future__ import annotations

import abc
import base64
import sys
import time
import zlib
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

import numpy as np

from ..cache.keys import checksum
from ..errors import CompressionError, EncodingError, ErrorBoundViolation, IntegrityError
from ..utils.stats import reconstruction_error
from .errorbound import ErrorBound
from .header import CHECKSUM_PLACEHOLDER, FORMAT_VERSION, read_frame, write_frame

__all__ = [
    "SectionContainer", "CompressedBlob", "CompressionStats", "CompressionResult", "Compressor",
    "Checksummed", "require_error_bound",
]

#: The blob-level header fields every blob carries (beside ``metadata``).
_BLOB_FIELDS = ("compressor", "shape", "dtype", "error_bound_abs")
#: Section a one-block blob keeps its block in.
_SOLE_SECTION = "payload"
#: Header and metadata fields that describe a block *grid*: a one-block
#: blob is written without them.
_GRID_HEADER_FIELDS = ("block_shape", "block_index")
_GRID_METADATA_FIELDS = ("num_blocks", "adaptive_predictor", "block_codecs")


@lru_cache(maxsize=64)
def dtype_name(dtype: np.dtype) -> str:
    """``str(dtype)``, remembered: NumPy spells the name out in Python on
    every call (~3 us) and each encoded block asks for it five times."""
    return str(dtype)


class Checksummed(bytes):
    """Section bytes that carry their :func:`~repro.cache.keys.checksum`, taken
    where the bytes were made (on the helper lane) or verified when read."""

    digest: bytes

    @classmethod
    def of(cls, data: Any, digest: Optional[bytes] = None) -> "Checksummed":
        section = cls(data)
        section.digest = checksum(section) if digest is None else digest
        return section


class SectionContainer:
    """Serialize a header plus named binary sections to bytes.

    The frame before the sections — version, header, section table and,
    in a *checked* container, the checksums — is :mod:`.header`'s.  A
    top-level container (a blob, a streamed block message) is checked;
    one nested inside a checked section (a block's inner section) is
    not.  Parsing decodes only the header, after checking it: sections
    are indexed by offset, and each one's bytes are sliced out of the
    source buffer, and checked, on first access.  That is what gives
    blocked blobs true random access — decoding ``block:7`` never touches
    the payload bytes of any other block.
    """

    def __init__(self, header: Optional[Dict[str, Any]] = None, checked: bool = False) -> None:
        self.header: Dict[str, Any] = dict(header or {})
        #: Section name -> its bytes, or the ``(offset, size, checksum)`` of a
        #: parsed section not yet read out of ``_buffer``; in serialisation order.
        self._sections: Dict[str, Union[bytes, Tuple[int, int, Optional[bytes]]]] = {}
        self._buffer: bytes = b""
        #: Whether this container stores checksums (where it sits decides).
        self.checked = checked
        #: Version the container was parsed from (writes always use the
        #: current :data:`~.header.FORMAT_VERSION`).
        self.source_version: int = FORMAT_VERSION

    def add_section(self, name: str, payload: bytes, overwrite: bool = False) -> None:
        """Add a named binary section.

        Duplicate names are rejected unless ``overwrite=True``: a silently
        shadowed section would corrupt blocked blobs (two ``block:<id>``
        sections with one set of bytes lost on the wire).
        """
        if not overwrite and name in self._sections:
            raise EncodingError(f"duplicate section {name!r} in container")
        self._sections[name] = payload if isinstance(payload, Checksummed) else bytes(payload)

    def add_array(self, name: str, array: np.ndarray) -> None:
        """Add a NumPy array section, recording dtype/shape in the header."""
        arr = np.ascontiguousarray(array)
        meta = self.header.setdefault("_arrays", {})
        meta[name] = {"dtype": dtype_name(arr.dtype), "shape": list(arr.shape)}
        self.add_section(name, arr.tobytes())

    def get_section(self, name: str) -> bytes:
        """Return the raw bytes of a named section.

        On a parsed container this materialises the section from the
        source buffer on first access, and checks it against its stored
        checksum (:class:`IntegrityError` if it does not match); untouched
        sections stay as (offset, size, checksum) bookkeeping only.
        """
        try:
            section = self._sections[name]
        except KeyError as exc:
            raise EncodingError(f"missing section {name!r} in container") from exc
        if isinstance(section, tuple):
            offset, size, digest = section  # extent checked by from_bytes
            data = memoryview(self._buffer)[offset : offset + size]
            if digest is None:
                section = bytes(data)
            elif checksum(data) != digest:
                raise IntegrityError(f"section {name!r} does not match its checksum")
            else:
                section = Checksummed.of(data, digest)
            self._sections[name] = section
        return section

    def get_array(self, name: str) -> np.ndarray:
        """Return a NumPy array section (dtype/shape restored from header)."""
        meta = self.header.get("_arrays", {}).get(name)
        if meta is None:
            raise EncodingError(f"section {name!r} was not stored as an array")
        raw = self.get_section(name)
        arr = np.frombuffer(raw, dtype=np.dtype(meta["dtype"]))
        return arr.reshape(meta["shape"])

    def section_names(self) -> List[str]:
        """Names of all stored sections, in serialisation order."""
        return list(self._sections)

    def section_size(self, name: str) -> int:
        """Size in bytes of a named section, without materialising it."""
        try:
            section = self._sections[name]
        except KeyError as exc:
            raise EncodingError(f"missing section {name!r} in container") from exc
        return section[1] if isinstance(section, tuple) else len(section)

    def loaded_section_names(self) -> List[str]:
        """Sections whose bytes have actually been materialised.

        On a built container this is every section; on a parsed one,
        only those touched by :meth:`get_section` so far — the
        random-access tests use this to prove single-block decodes never
        read their neighbours.
        """
        return [name for name, held in self._sections.items() if isinstance(held, bytes)]

    def _table(self, sums: Optional[List[bytes]]) -> List[list]:
        """The section table; ``sums`` holds each section's checksum in a checked container."""
        table = [[name, self.section_size(name)] for name in self._sections]
        for entry, digest in zip(table, sums or ()):
            entry.append(digest)
        return table

    def serialized_size(self) -> int:
        """Size :meth:`to_bytes` would produce, without joining the payloads.

        Only the (small) header is materialised; section bytes are summed
        in place and nothing is hashed, so this is cheap even for
        multi-GB containers.
        """
        sums = [CHECKSUM_PLACEHOLDER] * len(self._sections) if self.checked else None
        frame = write_frame(self.header, self._table(sums), self.checked, CHECKSUM_PLACEHOLDER)
        return len(frame) + sum(map(self.section_size, self._sections))

    def to_bytes(self) -> bytes:
        """Serialise the container (materialising any unread sections)."""
        sections = [self.get_section(name) for name in self._sections]
        sums = None
        if self.checked:  # a section made on the helper lane brought its own
            sums = [getattr(data, "digest", None) or checksum(data) for data in sections]
        return b"".join([write_frame(self.header, self._table(sums), self.checked), *sections])

    @classmethod
    def from_bytes(cls, data: bytes) -> "SectionContainer":
        """Parse a container previously produced by :meth:`to_bytes`.

        Only the header is decoded (after its checksum is checked, and
        every section's extent against ``data``); each section is sliced
        from ``data`` on first :meth:`get_section` access.  Anything that
        is not such a container — bytes after the last section included —
        ends in :class:`EncodingError`.
        """
        version, header, table, offset, checked = read_frame(data)
        container = cls(header, checked=checked)
        container.source_version = version
        for name, size, digest in table:
            if name in container._sections:
                raise EncodingError(f"duplicate section {name!r} in container")
            # A negative size would make later sections alias earlier bytes.
            if size < 0 or offset + size > len(data):
                raise EncodingError(f"truncated section {name!r}")
            container._sections[name] = (offset, size, digest)
            offset += size
        if offset != len(data):
            raise EncodingError(f"{len(data) - offset} trailing bytes after the last section")
        container._buffer = data
        return container


class CompressedBlob:
    """A compressed representation of one array, ready to write/transfer."""

    def __init__(
        self,
        compressor: str,
        shape: Tuple[int, ...],
        dtype: str,
        error_bound_abs: float,
        container: SectionContainer,
        metadata: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.compressor = compressor
        self.shape = tuple(int(s) for s in shape)
        self.dtype = str(dtype)
        self.error_bound_abs = float(error_bound_abs)
        self.container = container
        container.checked = True  # a blob is a top-level container
        self.metadata = dict(metadata or {})
        #: Memoised (header value, decoded bytes) shared codebook.
        self._codebook_cache: Optional[Tuple[Union[str, bytes], bytes]] = None
        #: Memoised (header's block index, block id -> its entry).
        self._entry_cache: Optional[Tuple[list, Dict[int, Dict[str, Any]]]] = None

    @property
    def num_elements(self) -> int:
        """Number of elements in the original array."""
        count = 1
        for dim in self.shape:
            count *= dim
        return count

    def _sync_header(self) -> None:
        self.container.header.update(
            {
                "compressor": self.compressor,
                "shape": list(self.shape),
                "dtype": self.dtype,
                "error_bound_abs": self.error_bound_abs,
                "metadata": self.metadata,
            }
        )

    def to_bytes(self) -> bytes:
        """Serialise the blob (header + sections) to bytes."""
        self._sync_header()
        return self.container.to_bytes()

    @classmethod
    def from_bytes(cls, data: bytes) -> "CompressedBlob":
        """Parse a blob previously produced by :meth:`to_bytes`.

        Only the header is decoded (and its blob-level fields checked);
        section payloads (one per block) are sliced from ``data`` on
        demand, which is what random-access single-block decodes rely on.
        """
        container = SectionContainer.from_bytes(data)
        fields = _blob_fields(container.header, "compressed blob header")
        return cls(container=container, **fields)

    @property
    def nbytes(self) -> int:
        """Serialised size of the blob in bytes.

        Computed from the header and per-section sizes without joining the
        section payloads; this sits on the orchestrator's per-file hot path
        and must not re-serialise the blob on every access.
        """
        self._sync_header()
        return self.container.serialized_size()

    # ------------------------------------------------------------------ #
    # The block plan
    # ------------------------------------------------------------------ #
    @property
    def format_version(self) -> int:
        """On-the-wire version this blob was parsed from (or will be written as)."""
        return self.container.source_version

    def _index(self) -> List[Dict[str, Any]]:
        """The block index: the stored one, or the entry a one-block blob implies."""
        stored = self.container.header.get("block_index")
        if stored:
            return stored
        return [
            {
                "id": 0,
                "origin": [0] * len(self.shape),
                "shape": list(self.shape),
                "predictor": self.container.header.get("predictor", ""),
                "section": _SOLE_SECTION,
            }
        ]

    @property
    def block_index(self) -> List[Dict[str, Any]]:
        """The per-block index (a copy), one entry per block.

        Each entry carries the block ``id``, ``origin``, ``shape``, the
        ``predictor`` that encoded it and the name of its ``section``.
        """
        return list(self._index())

    @property
    def num_blocks(self) -> int:
        """Number of independently decodable blocks."""
        return len(self._index())

    @property
    def aliased_block_count(self) -> int:
        """Blocks stored as aliases of an identical earlier block; only
        blobs written by older builds, which deduplicated blocks, have any."""
        return sum(
            1
            for entry in self.container.header.get("block_index", [])
            if entry.get("alias_of") is not None
        )

    def block_entry(self, block_id: int) -> Dict[str, Any]:
        """The index entry of one block.

        A stored index is traversed once per blob, not once per call:
        random access to every block of an n-block blob is O(n), and the
        map is rebuilt when the header's ``block_index`` is replaced.
        """
        stored = self.container.header.get("block_index")
        cached = self._entry_cache
        if cached is None or cached[0] is not stored:
            try:
                cached = self._entry_cache = (stored, {int(e["id"]): e for e in self._index()})
            except (KeyError, TypeError, ValueError) as exc:
                raise EncodingError("malformed block index in blob header") from exc
        try:
            return dict(cached[1][int(block_id)])
        except KeyError:
            raise EncodingError(f"blob has no block {block_id}") from None

    @property
    def shared_codebook_bytes(self) -> Optional[bytes]:
        """The file-wide entropy codebook, when the blob stores one.

        Blocked blobs written in shared-codebook mode serialise the
        entropy model (a Huffman codebook or rANS frequency table)
        **once**, deflated, as a bytes value of the blob header (a base64
        string in v1/v2 headers), instead of once per ``block:<id>``
        section.  Returns ``None`` for blobs whose blocks each carry their
        own model.  The header travels with :meth:`export_block` messages,
        so streamed blocks stay independently decodable at the destination.
        """
        encoded = self.container.header.get("shared_codebook")
        if not encoded:
            return None
        # Memoised against the header value: blocked decompression reads
        # this once per block, and re-running base64+zlib per block would
        # put redundant work on the parallel decode path.
        cached = self._codebook_cache
        if cached is not None and cached[0] == encoded:
            return cached[1]
        try:
            decoded = zlib.decompress(
                base64.b64decode(encoded) if isinstance(encoded, str) else encoded
            )
        except (ValueError, TypeError, zlib.error) as exc:
            raise EncodingError("corrupt shared codebook in blob header") from exc
        self._codebook_cache = (encoded, decoded)
        return decoded

    @property
    def codebook_mode(self) -> str:
        """``"shared"``, ``"per-block"``, or ``"none"`` (debugging/inspect aid).

        ``"per-block"`` is reported when any block's index entry records a
        block-local codebook; blobs that never ran an entropy stage (or
        predate codebook tracking without one) report ``"none"``.
        """
        if self.container.header.get("shared_codebook"):
            return "shared"
        for entry in self.container.header.get("block_index", []):
            if entry.get("codebook") == "block":
                return "per-block"
        # Blobs from before per-entry codebook tracking: infer from the
        # pipeline's recorded entropy stage.
        if self.container.header.get("entropy_stage") in ("huffman", "rans"):
            return "per-block"
        return "none"

    # ------------------------------------------------------------------ #
    # Streaming: per-block wire messages and destination-side assembly
    # ------------------------------------------------------------------ #
    def _stream_header(self) -> Dict[str, Any]:
        """Blob-level header fields a destination needs to rebuild the blob."""
        self._sync_header()
        header = {
            k: v
            for k, v in self.container.header.items()
            if k not in ("block_index", "_sections")
        }
        return header

    @staticmethod
    def block_message(
        blob_header: Dict[str, Any], entry: Dict[str, Any], payload: bytes
    ) -> SectionContainer:
        """The standalone wire message of one block section, as a container.

        The one place the message is laid out: :meth:`export_block`
        writes its ``to_bytes()`` and the streaming pipeline — where the
        full blob never exists on the sending side — bills its
        ``serialized_size()``, so the bill and the bytes cannot drift.
        """
        message = SectionContainer(
            header={"stream_block": dict(entry), "blob_header": dict(blob_header)}, checked=True
        )
        message.add_section("payload", payload)
        return message

    @staticmethod
    def encode_block_message(
        blob_header: Dict[str, Any], entry: Dict[str, Any], payload: bytes
    ) -> bytes:
        """:meth:`block_message`, serialised."""
        return CompressedBlob.block_message(blob_header, entry, payload).to_bytes()

    def export_block(self, block_id: int) -> bytes:
        """Serialise one ``block:<id>`` section plus its index entry.

        The result is a standalone message carrying everything the
        destination needs about this block — the blob-level header (so
        the first message to arrive can seed the assembly), the block's
        index entry, and its payload bytes.  On a parsed blob only the
        exported block's section is materialised; the other sections
        are never touched.
        """
        entry = self.block_entry(block_id)
        payload = self.container.get_section(entry["section"])
        return self.encode_block_message(self._stream_header(), entry, payload)

    @staticmethod
    def parse_block(data: bytes) -> Tuple[Dict[str, Any], Dict[str, Any], bytes]:
        """Parse an :meth:`export_block` message.

        Returns ``(blob_header, block_entry, payload)``.
        """
        message = SectionContainer.from_bytes(data)
        entry = message.header.get("stream_block")
        blob_header = message.header.get("blob_header")
        if not isinstance(entry, dict) or not isinstance(blob_header, dict):
            raise EncodingError("not a streamed block message")
        _blob_fields(blob_header, "stream blob header")
        return dict(blob_header), dict(entry), message.get_section("payload")

    @classmethod
    def assemble(
        cls,
        blob_header: Dict[str, Any],
        blocks: List[Tuple[Dict[str, Any], bytes]],
    ) -> "CompressedBlob":
        """Build a blob from independently encoded or received block sections.

        ``blocks`` holds ``(index_entry, payload)`` pairs in any order
        (streamed blocks can arrive out of order); the assembled blob
        orders them by block id and validates that the id range is dense
        with no duplicates, so a missing or doubled block fails loudly at
        assembly instead of corrupting the decode.  This is the one
        writer of the module's rule: a single block goes into the
        ``payload`` section under a header that names its predictor and
        carries no index and none of the fields that describe a grid.
        """
        ordered = sorted(blocks, key=lambda item: int(item[0]["id"]))
        ids = [int(entry["id"]) for entry, _ in ordered]
        if ids != list(range(len(ids))):
            raise EncodingError(
                f"cannot assemble blob: expected dense block ids, got {ids}"
            )
        header = dict(blob_header)
        try:
            fields = {name: header.pop(name) for name in _BLOB_FIELDS}
        except KeyError as exc:
            raise EncodingError(f"stream blob header missing key {exc}") from exc
        fields["metadata"] = header.pop("metadata", {})
        container = SectionContainer(header)
        if len(ordered) == 1:
            ((entry, payload),) = ordered
            for name in _GRID_HEADER_FIELDS:
                container.header.pop(name, None)
            container.header["predictor"] = entry["predictor"]
            container.add_section(_SOLE_SECTION, payload)
            fields["metadata"] = {
                k: v for k, v in fields["metadata"].items() if k not in _GRID_METADATA_FIELDS
            }
            return cls(container=container, **fields)
        for entry, payload in ordered:
            container.add_section(entry["section"], payload)
        container.header["block_index"] = [dict(entry) for entry, _ in ordered]
        return cls(container=container, **fields)


def _blob_fields(header: Mapping[str, Any], what: str) -> Dict[str, Any]:
    """The blob-level fields of a parsed header, as :class:`CompressedBlob` keywords.

    Headers arrive as bytes from outside the program, and the entry a
    one-block blob implies is built from these fields, so each is
    checked here: anything but a shape, a floating dtype name, a finite
    positive bound and a metadata object ends in :class:`EncodingError`.
    """
    try:
        fields = {name: header[name] for name in _BLOB_FIELDS}
    except KeyError as exc:
        raise EncodingError(f"{what} missing key {exc}") from exc
    fields["metadata"] = metadata = header.get("metadata", {})
    shape, dtype, bound = fields["shape"], fields["dtype"], fields["error_bound_abs"]
    if not isinstance(shape, list) or not all(
        isinstance(dim, int) and not isinstance(dim, bool) and dim >= 0 for dim in shape
    ):
        raise EncodingError(f"{what}: shape {shape!r} is not a list of non-negative integers")
    try:
        floating = isinstance(dtype, str) and np.dtype(dtype).kind == "f"
    except TypeError:
        floating = False
    if not floating:
        raise EncodingError(f"{what}: dtype {dtype!r} does not name a floating-point type")
    if (
        not isinstance(bound, (int, float))
        or isinstance(bound, bool)
        or not 0 < bound <= sys.float_info.max  # NaN fails both comparisons
    ):
        raise EncodingError(f"{what}: error bound {bound!r} is not a finite positive number")
    if not isinstance(metadata, dict):
        raise EncodingError(f"{what}: metadata {metadata!r} is not an object")
    return fields


@dataclass
class CompressionStats:
    """Measured statistics for one compression operation."""

    original_bytes: int
    compressed_bytes: int
    compression_time_s: float
    decompression_time_s: float = 0.0
    psnr_db: Optional[float] = None
    max_abs_error: Optional[float] = None
    extra: Dict[str, Any] = field(default_factory=dict)

    @property
    def compression_ratio(self) -> float:
        """Original size divided by compressed size."""
        if self.compressed_bytes <= 0:
            return float("inf")
        return self.original_bytes / self.compressed_bytes


@dataclass
class CompressionResult:
    """A compressed blob together with its measured statistics."""

    blob: CompressedBlob
    stats: CompressionStats

    @property
    def compression_ratio(self) -> float:
        """Convenience accessor for the compression ratio."""
        return self.stats.compression_ratio


def require_error_bound(
    max_abs_error: float, error_bound_abs: float, magnitude: float, dtype: np.dtype
) -> None:
    """Raise :class:`ErrorBoundViolation` unless ``max_abs_error`` honours the bound.

    The one bound check, wherever the reconstruction was produced.  Float
    slack rides on top of the bound: casting the float64 reconstruction
    back to its ``dtype`` (e.g. float32) rounds each value by up to
    eps * ``magnitude``, the original's largest absolute value (the caller
    has it from the extrema it reads anyway).
    """
    cast_slack = float(np.finfo(dtype).eps) * magnitude
    tolerance = error_bound_abs * (1.0 + 1e-9) + cast_slack + 1e-300
    if max_abs_error > tolerance:
        raise ErrorBoundViolation(max_abs_error, error_bound_abs)


class Compressor(abc.ABC):
    """Abstract error-bounded lossy compressor.

    Concrete compressors implement :meth:`compress_array` and
    :meth:`decompress_blob`; the public :meth:`compress` / :meth:`decompress`
    wrappers add timing, ratio accounting and, when they reconstruct,
    the error-bound check.
    """

    #: Registry name; subclasses override.
    name: str = "abstract"

    @abc.abstractmethod
    def compress_array(self, data: np.ndarray, error_bound_abs: float) -> CompressedBlob:
        """Compress ``data`` with an absolute error bound."""

    @abc.abstractmethod
    def decompress_blob(self, blob: CompressedBlob, inflated: Optional[Any] = None) -> np.ndarray:
        """Reconstruct the array stored in ``blob``."""

    def compress(
        self,
        data: np.ndarray,
        error_bound: ErrorBound,
        collect_quality: bool = False,
    ) -> CompressionResult:
        """Compress ``data`` and return the blob with timing/ratio statistics.

        Args:
            data: the array to compress (any dimensionality, float dtype).
            error_bound: the error-bound request (absolute or relative).
            collect_quality: when True, decompress immediately, record PSNR
                and max error in the stats and check the absolute error
                bound (raises :class:`~repro.errors.ErrorBoundViolation`).
        """
        arr = np.asarray(data)
        if arr.size == 0:
            raise CompressionError("cannot compress an empty array")
        if not np.issubdtype(arr.dtype, np.floating):
            arr = arr.astype(np.float32)
        eb_abs = error_bound.absolute_for(arr)
        start = time.perf_counter()
        blob = self.compress_array(arr, eb_abs)
        elapsed = time.perf_counter() - start
        blob.metadata.setdefault("error_bound_request", error_bound.describe())
        stats = CompressionStats(
            original_bytes=int(arr.nbytes),
            compressed_bytes=int(blob.nbytes),
            compression_time_s=float(elapsed),
        )
        if collect_quality:
            t0 = time.perf_counter()
            recon = self.decompress_blob(blob)
            stats.decompression_time_s = time.perf_counter() - t0
            stats.psnr_db, stats.max_abs_error = reconstruction_error(arr, recon)
            magnitude = max(abs(float(arr.min())), abs(float(arr.max())))
            require_error_bound(stats.max_abs_error, eb_abs, magnitude, recon.dtype)
        return CompressionResult(blob=blob, stats=stats)

    def decompress(self, blob: CompressedBlob, inflated: Optional[Any] = None) -> np.ndarray:
        """Reconstruct an array from a blob produced by this compressor
        (``inflated``: what its ``inflate_sections`` started for ``blob``)."""
        if blob.compressor != self.name:
            raise CompressionError(
                f"blob was produced by {blob.compressor!r}, not {self.name!r}"
            )
        return self.decompress_blob(blob, inflated)
