"""Canonical Huffman coding for integer symbol streams.

The SZ family encodes quantisation bins with Huffman coding before a
final dictionary/LZ pass.  Besides the actual codec, this module exposes
:func:`huffman_code_lengths` and :class:`HuffmanCodebook.zero_symbol_share`,
which the quality-prediction features (``P0`` — the share of the encoded
stream occupied by the zero bin) are computed from without needing to
materialise the encoded bit stream.

The codec itself is table-driven and vectorised:

* **Encoding** counts frequencies with ``np.bincount`` (quantiser output
  has a bounded alphabet), builds a *length-limited* canonical codebook
  (codes capped at :data:`MAX_CODE_LENGTH` bits), gathers per-symbol
  codes/lengths through dense lookup tables, and packs the bit stream
  with ``np.repeat`` + ``np.packbits`` instead of a per-symbol Python
  accumulator loop.
* **Decoding** builds a flat ``2**max_len`` lookup table mapping every
  possible ``max_len``-bit window to ``(symbol, code length)`` and
  resolves the serial "where does the next code start" chain by
  *pointer jumping* (:class:`_LutDecoder`): per segment of the payload
  it computes, for every bit position at once, where a code starting
  there would end, squares that map a few times so one hop skips 16
  symbols, walks only every 16th code start in Python and fills the
  rest back in with gathers.  Cost is a handful of array passes per bit
  position instead of an interpreter iteration per symbol (the seed
  implementation probed a dict once per *bit*), and transient memory is
  bounded by the segment, not the stream.  The seed per-bit decoder is
  retained as :meth:`HuffmanCodec.decode_bitloop` — it is the fallback
  for legacy codebooks whose unlimited code lengths exceed the LUT
  budget, and the reference the tests and the throughput benchmark
  measure the table-driven path against.

Codebooks serialise exactly as before ((symbol, length) int64 pairs), so
blobs written by earlier revisions decode unchanged and new blobs remain
readable by the canonical-code definition alone.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ...errors import EncodingError

__all__ = [
    "HuffmanCodebook",
    "HuffmanCodec",
    "huffman_code_lengths",
    "length_limited_code_lengths",
    "symbol_frequencies",
    "MAX_CODE_LENGTH",
]

#: Default cap on code lengths (bits).  Length-limiting keeps the decode
#: LUT at a bounded ``2**16`` entries; alphabets larger than ``2**16``
#: symbols raise the cap to ``ceil(log2(n))`` so a prefix code exists.
MAX_CODE_LENGTH = 16

#: Widest LUT the decoder will materialise (bits).  Legacy codebooks with
#: longer (unlimited) codes fall back to the per-bit reference decoder.
_LUT_MAX_BITS = 20

#: Alphabets whose value span exceeds this fall back to ``np.unique``
#: frequency counting instead of a dense ``np.bincount``.
_DENSE_SPAN_LIMIT = 1 << 22


def huffman_code_lengths(frequencies: Dict[int, int]) -> Dict[int, int]:
    """Return the (unlimited) Huffman code length in bits of each symbol.

    A single-symbol alphabet is assigned a 1-bit code.

    Uses the two-queue construction: leaves sorted by (frequency,
    symbol) in one queue, merged nodes in a second — merge sums are
    non-decreasing, so the second queue stays sorted for free and each
    step pops the two cheapest heads without heap maintenance.  Ties
    resolve exactly as the previous heap implementation did (leaves
    before merged nodes, older merged nodes first), so codebooks — and
    therefore serialised blobs — are unchanged.
    """
    symbols = [s for s, f in frequencies.items() if f > 0]
    if not symbols:
        return {}
    if len(symbols) == 1:
        return {symbols[0]: 1}
    # Queue entries: (frequency, [list of (symbol, depth)]).
    leaves = deque(
        (frequencies[sym], [(sym, 0)])
        for sym in sorted(symbols, key=lambda s: (frequencies[s], s))
    )
    merged: deque = deque()

    def pop_min():
        if merged and (not leaves or merged[0][0] < leaves[0][0]):
            return merged.popleft()
        return leaves.popleft()

    for _ in range(len(symbols) - 1):
        f1, group1 = pop_min()
        f2, group2 = pop_min()
        merged.append((f1 + f2, [(sym, depth + 1) for sym, depth in group1 + group2]))
    return {sym: depth for sym, depth in merged[0][1]}


def length_limited_code_lengths(
    frequencies: Dict[int, int], max_length: int = MAX_CODE_LENGTH
) -> Dict[int, int]:
    """Huffman code lengths capped at ``max_length`` bits.

    Lengths exceeding the cap are clamped and the Kraft inequality is
    repaired by lengthening the least-frequent symbols; leftover Kraft
    slack is then spent shortening the most frequent ones.  The result
    is always a valid prefix code (Kraft sum <= 1) and equals the exact
    Huffman lengths whenever those already fit the cap.
    """
    lengths = huffman_code_lengths(frequencies)
    if not lengths or len(lengths) == 1:
        return lengths
    # A prefix code over n symbols needs at least ceil(log2(n)) bits.
    min_feasible = int(np.ceil(np.log2(len(lengths))))
    cap = max(int(max_length), min_feasible)
    if max(lengths.values()) <= cap:
        return lengths
    lengths = {sym: min(length, cap) for sym, length in lengths.items()}
    budget = 1 << cap
    kraft = sum(1 << (cap - length) for length in lengths.values())
    if kraft > budget:
        # Lengthen the cheapest symbols first (deterministic order).
        order = sorted(lengths, key=lambda s: (frequencies[s], s))
        idx = 0
        while kraft > budget:
            sym = order[idx % len(order)]
            if lengths[sym] < cap:
                kraft -= 1 << (cap - lengths[sym] - 1)
                lengths[sym] += 1
            idx += 1
    slack = budget - kraft
    for sym in sorted(lengths, key=lambda s: (-frequencies[s], s)):
        while lengths[sym] > 1:
            cost = 1 << (cap - lengths[sym])
            if cost > slack:
                break
            slack -= cost
            lengths[sym] -= 1
    return lengths


def symbol_frequencies(arr: np.ndarray) -> Dict[int, int]:
    """Frequencies of each symbol in ``arr`` (int64), vectorised.

    Uses ``np.bincount`` over the value span when it is bounded — which
    quantiser output guarantees — and falls back to ``np.unique`` for
    pathologically wide alphabets.
    """
    arr = np.asarray(arr, dtype=np.int64).ravel()
    if arr.size == 0:
        return {}
    lo = int(arr.min())
    hi = int(arr.max())
    span = hi - lo + 1
    if span <= _DENSE_SPAN_LIMIT:
        counts = np.bincount(arr - lo, minlength=span)
        present = np.flatnonzero(counts)
        return {int(sym + lo): int(counts[sym]) for sym in present}
    uniques, counts = np.unique(arr, return_counts=True)
    return {int(s): int(c) for s, c in zip(uniques, counts)}


@dataclass
class HuffmanCodebook:
    """A canonical Huffman codebook: symbol -> (code, length)."""

    lengths: Dict[int, int]
    codes: Dict[int, int]
    #: Lazily built dense encode tables: (lo, code_table, length_table).
    _dense: Optional[Tuple[int, np.ndarray, np.ndarray]] = field(
        default=None, repr=False, compare=False
    )

    @classmethod
    def from_frequencies(
        cls, frequencies: Dict[int, int], max_length: Optional[int] = None
    ) -> "HuffmanCodebook":
        """Build a canonical codebook from symbol frequencies.

        ``max_length`` caps code lengths (length-limited canonical code);
        ``None`` keeps the exact, unlimited Huffman lengths — what the
        quality-prediction features expect.
        """
        if max_length is None:
            lengths = huffman_code_lengths(frequencies)
        else:
            lengths = length_limited_code_lengths(frequencies, max_length)
        codes = _canonical_codes(lengths)
        return cls(lengths=lengths, codes=codes)

    @classmethod
    def from_lengths(cls, lengths: Dict[int, int]) -> "HuffmanCodebook":
        """Rebuild a canonical codebook from symbol code lengths only."""
        return cls(lengths=dict(lengths), codes=_canonical_codes(lengths))

    def encoded_bit_size(self, frequencies: Dict[int, int]) -> int:
        """Total encoded size in bits for the given symbol frequencies."""
        return sum(self.lengths.get(sym, 0) * freq for sym, freq in frequencies.items())

    def zero_symbol_share(self, frequencies: Dict[int, int], zero_symbol: int) -> float:
        """Fraction of encoded bits spent on ``zero_symbol`` (the paper's P0)."""
        total = self.encoded_bit_size(frequencies)
        if total == 0:
            return 0.0
        zero_bits = self.lengths.get(zero_symbol, 0) * frequencies.get(zero_symbol, 0)
        return zero_bits / total

    def max_length(self) -> int:
        """Longest code length in the book (0 for an empty book)."""
        return max(self.lengths.values()) if self.lengths else 0

    def serialize(self) -> bytes:
        """Serialise the codebook as (symbol, length) pairs."""
        items = sorted(self.lengths.items())
        arr = np.array(items, dtype=np.int64)
        return arr.tobytes()

    def serialized_nbytes(self) -> int:
        """Size :meth:`serialize` produces, without materialising it."""
        return 16 * len(self.lengths)

    @classmethod
    def deserialize(cls, payload: bytes) -> "HuffmanCodebook":
        """Rebuild a codebook from :meth:`serialize` output."""
        arr = np.frombuffer(payload, dtype=np.int64)
        if arr.size % 2 != 0:
            raise EncodingError("corrupt Huffman codebook payload")
        pairs = arr.reshape(-1, 2)
        lengths = {int(sym): int(length) for sym, length in pairs}
        return cls.from_lengths(lengths)

    # ------------------------------------------------------------------ #
    # Dense encode tables
    # ------------------------------------------------------------------ #
    def dense_tables(self) -> Optional[Tuple[int, np.ndarray, np.ndarray]]:
        """``(lo, code_table, length_table)`` spanning the symbol range.

        ``length_table`` is 0 for values with no code.  Returns ``None``
        when the book is empty or its value span is too wide to densify.
        """
        if self._dense is not None:
            return self._dense
        if not self.lengths:
            return None
        lo = min(self.lengths)
        hi = max(self.lengths)
        span = hi - lo + 1
        if span > _DENSE_SPAN_LIMIT:
            return None
        code_table = np.zeros(span, dtype=np.uint64)
        length_table = np.zeros(span, dtype=np.uint8)
        for sym, length in self.lengths.items():
            code_table[sym - lo] = self.codes[sym]
            length_table[sym - lo] = length
        self._dense = (lo, code_table, length_table)
        return self._dense

    def lookup(self, arr: np.ndarray) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """Vectorised per-symbol ``(codes, lengths)`` for ``arr``.

        Returns ``None`` when any symbol in ``arr`` has no code in this
        book — the caller's cue to fall back to a per-block codebook.
        """
        tables = self.dense_tables()
        if tables is None:
            return self._sparse_lookup(arr)
        lo, code_table, length_table = tables
        shifted = arr - lo
        if shifted.size and (
            int(shifted.min()) < 0 or int(shifted.max()) >= length_table.size
        ):
            return None
        lens = length_table[shifted]
        if shifted.size and int(lens.min()) == 0:
            return None
        return code_table[shifted], lens

    def _sparse_lookup(self, arr: np.ndarray) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """``lookup`` for alphabets too wide for a dense value table."""
        if not self.lengths:
            return None
        symbols = np.array(sorted(self.lengths), dtype=np.int64)
        idx = np.searchsorted(symbols, arr)
        idx_clipped = np.clip(idx, 0, symbols.size - 1)
        if arr.size and not bool(np.all(symbols[idx_clipped] == arr)):
            return None
        code_table = np.array([self.codes[int(s)] for s in symbols], dtype=np.uint64)
        length_table = np.array([self.lengths[int(s)] for s in symbols], dtype=np.uint8)
        return code_table[idx_clipped], length_table[idx_clipped]


def _canonical_codes(lengths: Dict[int, int]) -> Dict[int, int]:
    """Assign canonical codes (ordered by length then symbol value)."""
    if not lengths:
        return {}
    ordered = sorted(lengths.items(), key=lambda kv: (kv[1], kv[0]))
    codes: Dict[int, int] = {}
    code = 0
    prev_len = ordered[0][1]
    for sym, length in ordered:
        code <<= length - prev_len
        codes[sym] = code
        code += 1
        prev_len = length
    return codes


#: Payload bytes decoded per pointer-jumping pass.  The pass holds
#: ``_JUMP_LEVELS + 1`` position maps of ``8 * _SEGMENT_BYTES`` entries, so
#: 8 KiB keeps the working set (~2.5 MB) around L2 and the decoder's
#: transient memory independent of the stream length.
_SEGMENT_BYTES = 1 << 13

#: Squarings of the position map: the serial walk visits every
#: ``2**_JUMP_LEVELS``-th symbol.  Each level costs one gather over the
#: segment's bit positions and halves the walk; 4 sits on the flat part
#: of that trade from ~2 to ~8 bits per symbol.
_JUMP_LEVELS = 4


class _LutDecoder:
    """Flat-table canonical Huffman decoder with a data-parallel walk.

    The table maps every possible ``max_len``-bit window to the symbol
    whose code prefixes it and that code's length.  Where the codes start
    is inherently serial (each start depends on the previous length), so
    instead of probing the table once per symbol in Python the decoder
    *pointer-jumps*: for every bit position of a segment it computes
    where a code starting there would end (``jump[0][p] = p + length``),
    squares that map ``_JUMP_LEVELS`` times with one gather each
    (``jump[k] = jump[k-1][jump[k-1]]`` skips ``2**k`` symbols), walks
    only every ``2**_JUMP_LEVELS``-th code start in Python, and fills the
    starts in between back in with one interleaving gather per level.
    Positions past the segment map to themselves, so a chain that leaves
    the segment parks on its exit position, which seeds the next segment.
    """

    def __init__(self, book: HuffmanCodebook) -> None:
        self.max_len = book.max_length()
        if not 0 < self.max_len <= _LUT_MAX_BITS:
            raise EncodingError(
                f"code lengths up to {self.max_len} bits exceed the LUT budget"
            )
        size = 1 << self.max_len
        self.symbols = np.zeros(size, dtype=np.int64)
        # 0 marks windows no code prefixes (possible when Kraft sum < 1):
        # hitting one during decode means the stream is corrupt.
        self.step = np.zeros(size, dtype=np.uint8)
        for sym, length in book.lengths.items():
            start = book.codes[sym] << (self.max_len - length)
            end = start + (1 << (self.max_len - length))
            self.symbols[start:end] = sym
            self.step[start:end] = length
        self._complete = not bool(np.any(self.step == 0))

    def _windows(
        self, data: np.ndarray, first: int, nbytes: int, windows: np.ndarray
    ) -> np.ndarray:
        """Fill ``windows`` from ``nbytes`` bytes of ``data`` starting at ``first``.

        Row ``r`` receives the ``max_len``-bit window at bit ``r`` of
        every byte: a big-endian 32-bit word is assembled at each byte
        offset (zero padded past the end of the stream) and shifted once
        per bit phase, so every pass runs over a long contiguous row.
        """
        chunk = data[first : first + nbytes + 3]
        padded = np.zeros(nbytes + 3, dtype=np.intp)
        padded[: chunk.size] = chunk
        words = (
            (padded[:-3] << 24) | (padded[1:-2] << 16) | (padded[2:-1] << 8) | padded[3:]
        )
        for phase in range(8):
            np.right_shift(words, 32 - self.max_len - phase, out=windows[phase])
        windows &= (1 << self.max_len) - 1
        return windows

    def decode(self, payload: bytes, count: int) -> np.ndarray:
        """Decode ``count`` symbols from ``payload``."""
        data = np.frombuffer(payload, dtype=np.uint8)
        # Every code is at least one bit long: asking for more symbols than
        # that must fail, and how is settled within the first excess one.
        count = min(count, data.size * 8 + 1)
        out = np.empty(count, dtype=np.int64)
        stride = 1 << _JUMP_LEVELS
        # Scratch shared by every segment: transient memory is O(segment)
        # and the pages are touched for the first time only once per call.
        segment_bits = 8 * min(_SEGMENT_BYTES, data.size)
        positions = np.arange(segment_bits + self.max_len)
        window_buf = np.empty(segment_bits, dtype=np.intp)
        jump_buf = np.empty((_JUMP_LEVELS + 1) * positions.size, dtype=np.intp)
        emitted = 0
        entry = 0  # where the next code starts, in bits from the segment start
        end = 0  # where the last decoded code ends, in bits from the stream start
        for first in range(0, data.size, _SEGMENT_BYTES):
            if emitted == count:
                break
            nbytes = min(_SEGMENT_BYTES, data.size - first)
            nbits = nbytes * 8
            if entry >= nbits:  # a code spans this whole (tiny) segment
                entry -= nbits
                continue
            windows = self._windows(
                data, first, nbytes, window_buf[:nbits].reshape(8, nbytes)
            )
            reach = nbits + self.max_len  # the tail entries absorb chains that exit
            jump = jump_buf[: (_JUMP_LEVELS + 1) * reach].reshape(-1, reach)
            np.add(
                positions[:nbits].reshape(nbytes, 8),
                self.step.take(windows).T,
                out=jump[0, :nbits].reshape(nbytes, 8),
            )
            jump[0, nbits:] = positions[nbits:reach]
            for level in range(_JUMP_LEVELS):
                # Entries are in range by construction; a non-raising mode
                # lets ``take`` write straight into ``out``.
                np.take(jump[level], jump[level], out=jump[level + 1], mode="wrap")
            remaining = count - emitted
            # A hop skips ``stride`` codes of at least one bit each, so
            # ``nbits // stride + 1`` hops cover the segment; the cap also
            # ends a walk stuck on an invalid window (a zero step).
            hops = memoryview(jump[_JUMP_LEVELS, :nbits])
            anchors: List[int] = []
            pos = entry
            try:
                for _ in range(min(-(-remaining // stride), nbits // stride + 1)):
                    anchors.append(pos)
                    pos = hops[pos]
            except IndexError:  # left the segment
                pass
            starts = np.array(anchors, dtype=np.intp)
            for level in range(_JUMP_LEVELS - 1, -1, -1):
                pairs = np.empty((starts.size, 2), dtype=np.intp)
                pairs[:, 0] = starts
                pairs[:, 1] = jump[level].take(starts)
                starts = pairs.ravel()
            # Starts are non-decreasing; those parked past the segment
            # belong to the next one.
            starts = starts[: min(int(np.searchsorted(starts, nbits)), remaining)]
            codes = windows[starts & 7, starts >> 3]
            if not self._complete and not self.step.take(codes).all():
                raise EncodingError("invalid Huffman code encountered during decode")
            np.take(
                self.symbols, codes, out=out[emitted : emitted + starts.size], mode="wrap"
            )
            emitted += starts.size
            entry = int(jump[0, starts[-1]]) - nbits
            end = first * 8 + nbits + entry
        if emitted < count or end > data.size * 8:
            raise EncodingError("Huffman stream exhausted before all symbols decoded")
        return out


class HuffmanCodec:
    """Encode/decode integer symbol arrays with canonical Huffman coding."""

    #: Decoders are cached per codebook payload so shared-codebook blobs
    #: build their LUT once per file instead of once per block.
    _DECODER_CACHE_SIZE = 8

    def __init__(self) -> None:
        self._decoders: Dict[bytes, _LutDecoder] = {}
        # Blocked decompression fans decode calls out over a thread pool;
        # the lock keeps cache eviction race-free (building the same
        # decoder twice is benign, a double-pop KeyError is not).
        self._cache_lock = threading.Lock()

    def encode(self, symbols: np.ndarray) -> Tuple[bytes, bytes, int]:
        """Encode ``symbols``.

        Returns ``(payload, codebook_bytes, count)``; decoding requires all
        three.
        """
        arr = np.asarray(symbols, dtype=np.int64).ravel()
        count = int(arr.size)
        if count == 0:
            return b"", HuffmanCodebook(lengths={}, codes={}).serialize(), 0
        frequencies = symbol_frequencies(arr)
        book = HuffmanCodebook.from_frequencies(frequencies, max_length=MAX_CODE_LENGTH)
        payload = self.encode_with_book(arr, book)
        if payload is None:  # pragma: no cover - book covers arr by construction
            raise EncodingError("freshly built codebook failed to cover its input")
        return payload, book.serialize(), count

    def encode_with_book(
        self, symbols: np.ndarray, book: HuffmanCodebook
    ) -> Optional[bytes]:
        """Encode ``symbols`` against an existing (e.g. shared) codebook.

        Returns ``None`` when any symbol has no code in ``book`` — the
        shared-codebook pipeline then falls back to a per-block book.
        """
        arr = np.asarray(symbols, dtype=np.int64).ravel()
        if arr.size == 0:
            return b""
        looked_up = book.lookup(arr)
        if looked_up is None:
            return None
        codes, lens = looked_up
        if book.max_length() <= 16:
            return _pack_codes_16(codes, lens)
        return _pack_codes(codes, lens)

    def decode(self, payload: bytes, codebook_bytes: bytes, count: int) -> np.ndarray:
        """Decode ``count`` symbols from ``payload`` using the codebook."""
        if count == 0:
            return np.zeros(0, dtype=np.int64)
        with self._cache_lock:
            decoder = self._decoders.get(codebook_bytes)
        if decoder is None:
            book = HuffmanCodebook.deserialize(codebook_bytes)
            if not book.lengths:
                raise EncodingError("cannot decode with an empty Huffman codebook")
            if book.max_length() > _LUT_MAX_BITS:
                # Legacy unlimited-length codebook: the LUT would not fit,
                # use the reference per-bit decoder.
                return self._decode_bitloop(payload, book, count)
            decoder = _LutDecoder(book)
            with self._cache_lock:
                while len(self._decoders) >= self._DECODER_CACHE_SIZE:
                    self._decoders.pop(next(iter(self._decoders)))
                self._decoders[codebook_bytes] = decoder
        return decoder.decode(payload, count)

    def decode_bitloop(
        self, payload: bytes, codebook_bytes: bytes, count: int
    ) -> np.ndarray:
        """Reference bit-at-a-time decoder (the seed implementation).

        Kept as the fallback for legacy codebooks whose code lengths
        exceed the LUT budget and as the baseline the codec throughput
        benchmark measures the table-driven decoder against.
        """
        if count == 0:
            return np.zeros(0, dtype=np.int64)
        book = HuffmanCodebook.deserialize(codebook_bytes)
        if not book.lengths:
            raise EncodingError("cannot decode with an empty Huffman codebook")
        return self._decode_bitloop(payload, book, count)

    @staticmethod
    def _decode_bitloop(payload: bytes, book: HuffmanCodebook, count: int) -> np.ndarray:
        if len(book.lengths) == 1:
            only = next(iter(book.lengths))
            return np.full(count, only, dtype=np.int64)
        # Build a (length, code) -> symbol map for canonical decoding.
        decode_map: Dict[Tuple[int, int], int] = {
            (length, book.codes[sym]): sym for sym, length in book.lengths.items()
        }
        max_len = book.max_length()
        bits = np.unpackbits(np.frombuffer(payload, dtype=np.uint8))
        out = np.empty(count, dtype=np.int64)
        pos = 0
        total_bits = bits.size
        for i in range(count):
            code = 0
            length = 0
            while True:
                if pos >= total_bits:
                    raise EncodingError("Huffman stream exhausted before all symbols decoded")
                code = (code << 1) | int(bits[pos])
                pos += 1
                length += 1
                sym = decode_map.get((length, code))
                if sym is not None:
                    out[i] = sym
                    break
                if length > max_len:
                    raise EncodingError("invalid Huffman code encountered during decode")
        return out

    def estimate_encoded_bytes(self, symbols: np.ndarray) -> int:
        """Serialised size (payload + codebook) without materialising bits.

        Includes the codebook overhead: adaptive per-block predictor
        selection compares serialised sizes, and ignoring the codebook
        would bias the choice toward high-alphabet encodings.
        """
        arr = np.asarray(symbols, dtype=np.int64).ravel()
        if arr.size == 0:
            return 0
        frequencies = symbol_frequencies(arr)
        book = HuffmanCodebook.from_frequencies(frequencies, max_length=MAX_CODE_LENGTH)
        bits = book.encoded_bit_size(frequencies)
        return (bits + 7) // 8 + book.serialized_nbytes()


#: Symbols per chunk in :func:`_pack_codes`; bounds the transient
#: ``np.repeat`` expansions to a few MB regardless of stream length.
_PACK_CHUNK = 1 << 16

#: Symbols per chunk in :func:`_pack_codes_16`; bounds the transient
#: per-symbol arrays to a few tens of MB regardless of stream length.
_PACK16_CHUNK = 1 << 21


def _pack_codes_16(codes: np.ndarray, lengths: np.ndarray) -> bytes:
    """:func:`_pack_codes` fast path for books with codes of <= 16 bits.

    Works at byte granularity instead of expanding every bit: a 16-bit
    code at an arbitrary bit phase spans at most three output bytes, so
    each code is left-aligned into a 24-bit lane and its three byte
    slices are summed into the output with ``np.bincount``.  Distinct
    codes touch disjoint bits of a shared byte, so summation *is*
    bitwise OR, and the float64 sums bincount produces are exact.  The
    result is byte-identical to :func:`_pack_codes` at ~0.5 passes per
    stream bit rather than ~6.
    """
    lens = np.asarray(lengths)
    l64 = lens.astype(np.int64)
    total_bits = int(l64.sum())
    if total_bits == 0:
        return b""
    codes = np.asarray(codes)
    ends = np.cumsum(l64)
    total_bytes = (total_bits + 7) >> 3
    mlen = total_bytes + 2
    acc = np.zeros(mlen, dtype=np.float64)
    m = codes.size
    for start in range(0, m, _PACK16_CHUNK):
        stop = min(start + _PACK16_CHUNK, m)
        off = ends[start:stop] - l64[start:stop]
        r = (off & 7).astype(np.uint32)
        val = codes[start:stop].astype(np.uint32) << (
            np.uint32(24) - lens[start:stop].astype(np.uint32) - r
        )
        byte0 = off >> 3
        first = int(byte0[0])
        span = int(byte0[-1]) + 3 - first
        rel = byte0 - first
        acc[first : first + span] += np.bincount(
            rel, weights=(val >> np.uint32(16)).astype(np.float64), minlength=span
        )
        acc[first : first + span] += np.bincount(
            rel + 1,
            weights=((val >> np.uint32(8)) & np.uint32(255)).astype(np.float64),
            minlength=span,
        )
        acc[first : first + span] += np.bincount(
            rel + 2, weights=(val & np.uint32(255)).astype(np.float64), minlength=span
        )
    return acc[:total_bytes].astype(np.uint8).tobytes()


def _pack_codes(codes: np.ndarray, lengths: np.ndarray) -> bytes:
    """Pack per-symbol (code, length) pairs into a MSB-first byte stream.

    Bit offsets come from a cumulative sum of the lengths; each code is
    expanded to its individual bits with ``np.repeat`` and the whole
    stream is packed in one ``np.packbits`` call — no Python-level
    per-symbol loop.
    """
    lens = np.asarray(lengths, dtype=np.int64)
    total_bits = int(lens.sum())
    if total_bits == 0:
        return b""
    codes = np.asarray(codes, dtype=np.uint64)
    bits = np.empty(total_bits, dtype=np.uint8)
    ends = np.cumsum(lens)
    base = 0
    for start in range(0, lens.size, _PACK_CHUNK):
        stop = min(start + _PACK_CHUNK, lens.size)
        chunk_lens = lens[start:stop]
        chunk_bits = int(chunk_lens.sum())
        if chunk_bits == 0:
            base = int(ends[stop - 1])
            continue
        # Bit j of symbol k (MSB first) is (code_k >> (len_k - 1 - j)) & 1;
        # within the chunk the packed offsets are simply 0..chunk_bits.
        offsets = np.cumsum(chunk_lens) - chunk_lens
        intra = np.arange(chunk_bits, dtype=np.int64) - np.repeat(offsets, chunk_lens)
        shifts = (np.repeat(chunk_lens, chunk_lens) - 1 - intra).astype(np.uint64)
        expanded = np.repeat(codes[start:stop], chunk_lens)
        bits[base : base + chunk_bits] = ((expanded >> shifts) & np.uint64(1)).astype(
            np.uint8
        )
        base = int(ends[stop - 1])
    return np.packbits(bits).tobytes()
