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
  from cumulative bit offsets: three ``np.bincount`` byte sums for codes
  of <= 16 bits (:func:`_pack_codes_16`), ``np.repeat`` + ``np.packbits``
  otherwise (:func:`_pack_codes`).  The same offsets say where symbols
  ``K, 2K, 3K, ...`` start (K = :data:`SYNC_INTERVAL`): a stream of more
  than K symbols comes back as a :class:`SyncedPayload` carrying those
  distances, the *sync index* the decoder cannot recover on its own.
* **Decoding** lives in :mod:`.huffman_decode`: one flat ``2**max_len``
  lookup table and two walks over it, selected by what the input holds —
  *lockstep lanes* over the sync points of every stream in a batch (a
  cost per symbol), *pointer jumping* for streams without an index and
  batches too small to fill the lanes (a cost per bit position).  The
  seed per-bit decoder is retained as :meth:`HuffmanCodec.decode_bitloop`
  — the fallback for legacy codebooks whose unlimited code lengths exceed
  the LUT budget, and the reference the tests and the throughput
  benchmark measure against.

Codebooks serialise exactly as before ((symbol, length) int64 pairs), so
blobs written by earlier revisions decode unchanged and new blobs remain
readable by the canonical-code definition alone; ``codes_payload`` is
bit for bit what earlier revisions wrote, the index rides beside it.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ...errors import EncodingError
from .huffman_decode import _LUT_MAX_BITS, HuffmanStream, LutDecoder
from .huffman_decode import decode_bitloop as _decode_bitloop

__all__ = [
    "HuffmanCodebook", "HuffmanCodec", "HuffmanStream", "SYNC_INTERVAL", "SyncedPayload",
    "huffman_code_lengths", "length_limited_code_lengths", "symbol_frequencies",
    "pooled_symbol_frequencies", "MAX_CODE_LENGTH",
]

#: Default cap on code lengths (bits).  Length-limiting keeps the decode
#: LUT at a bounded ``2**16`` entries; alphabets larger than ``2**16``
#: symbols raise the cap to ``ceil(log2(n))`` so a prefix code exists.
MAX_CODE_LENGTH = 16

#: Symbols between sync points (K).  A stream longer than this is written
#: with the bit distance between the starts of symbols K, 2K, 3K, ...
#: (:class:`SyncedPayload`): the packer has them for free, and each is a
#: lane of the lockstep decoder.  Smaller K means more lanes per file and
#: a larger index.  One file of the bulk benchmark (18 blocks of 32^3
#: symbols, 7.2 bits/symbol, one shared book; pointer jumping 47 ms):
#:
#:   K      lanes   lockstep decode   compression ratio (4.3565 without)
#:   128    4608    8.7 ms            4.3093  (-1.08 %)
#:   256    2304    8.9 ms            4.3272  (-0.67 %)
#:   512    1152    10.5 ms           4.3365  (-0.46 %)
#:   1024   576     14.2 ms           4.3429  (-0.31 %)
#:
#: 256 is the knee: halving it buys no speed, doubling it costs 18 %.
#: The stream records the K it was written with, so this can change
#: without stranding stored blobs; K times the longest code (<= 255 bits,
#: lengths are uint8) must fit the uint16 a distance is stored in.
SYNC_INTERVAL = 256

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
        return dict(zip((present + lo).tolist(), counts[present].tolist()))
    uniques, counts = np.unique(arr, return_counts=True)
    return dict(zip(uniques.tolist(), counts.tolist()))


def pooled_symbol_frequencies(
    streams: Sequence[np.ndarray], weights: Sequence[int]
) -> Dict[int, int]:
    """:func:`symbol_frequencies` of several streams, each counted ``weight`` times.

    One histogram over the pooled value span and one dict at the end,
    instead of a dict per stream merged key by key.
    """
    arrays = (np.asarray(stream, dtype=np.int64).ravel() for stream in streams)
    pooled = [(arr, weight) for arr, weight in zip(arrays, weights) if arr.size]
    if not pooled:
        return {}
    lo = min(int(arr.min()) for arr, _ in pooled)
    span = max(int(arr.max()) for arr, _ in pooled) - lo + 1
    if span > _DENSE_SPAN_LIMIT:
        frequencies: Dict[int, int] = {}
        for arr, weight in pooled:
            for sym, freq in symbol_frequencies(arr).items():
                frequencies[sym] = frequencies.get(sym, 0) + freq * weight
        return frequencies
    counts = np.zeros(span, dtype=np.int64)
    for arr, weight in pooled:
        counts += weight * np.bincount(arr - lo, minlength=span)
    present = np.flatnonzero(counts)
    return dict(zip((present + lo).tolist(), counts[present].tolist()))


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


class HuffmanCodec:
    """Encode/decode integer symbol arrays with canonical Huffman coding."""

    #: Decoders are cached per codebook payload so shared-codebook blobs
    #: build their LUT once per file instead of once per block.
    _DECODER_CACHE_SIZE = 8

    def __init__(self) -> None:
        self._decoders: Dict[bytes, LutDecoder] = {}
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
        return self.decode_streams([HuffmanStream(payload, count)], codebook_bytes)[0]

    def decode_streams(
        self, streams: Sequence[HuffmanStream], codebook_bytes: bytes
    ) -> List[np.ndarray]:
        """Decode streams coded with one codebook, in one batch.

        Streams that carry a sync index (and ones short enough not to
        need it) decode in lockstep when together they fill the lanes;
        see :meth:`LutDecoder.decode_streams`.
        """
        if not any(stream.count for stream in streams):
            return [np.zeros(0, dtype=np.int64) for _ in streams]
        with self._cache_lock:
            decoder = self._decoders.get(codebook_bytes)
        if decoder is None:
            book = HuffmanCodebook.deserialize(codebook_bytes)
            if not book.lengths:
                raise EncodingError("cannot decode with an empty Huffman codebook")
            if book.max_length() > _LUT_MAX_BITS:
                # Legacy unlimited-length codebook: the LUT would not fit,
                # use the reference per-bit decoder.
                return [_decode_bitloop(s.payload, book, s.count) for s in streams]
            decoder = LutDecoder(book)
            with self._cache_lock:
                while len(self._decoders) >= self._DECODER_CACHE_SIZE:
                    self._decoders.pop(next(iter(self._decoders)))
                self._decoders[codebook_bytes] = decoder
        return decoder.decode_streams(streams)

    def decode_bitloop(
        self, payload: bytes, codebook_bytes: bytes, count: int
    ) -> np.ndarray:
        """Reference bit-at-a-time decoder (the seed implementation).

        Kept as the fallback for legacy codebooks whose code lengths
        exceed the LUT budget and as the baseline the codec throughput
        benchmark measures the table-driven decoders against.
        """
        if count == 0:
            return np.zeros(0, dtype=np.int64)
        book = HuffmanCodebook.deserialize(codebook_bytes)
        if not book.lengths:
            raise EncodingError("cannot decode with an empty Huffman codebook")
        return _decode_bitloop(payload, book, count)


class SyncedPayload(bytes):
    """A packed stream that remembers where every ``every``-th code starts.

    Plain ``bytes`` to every caller that does not ask; ``sync[i]`` is the
    bit distance from the start of symbol ``i * every`` to the start of
    symbol ``(i + 1) * every``.
    """

    sync: np.ndarray
    every: int


def _with_sync(packed: np.ndarray, ends: np.ndarray) -> bytes:
    """The ``packed`` bytes, with the sync index read off the packer's cumulative lengths."""
    if ends.size <= SYNC_INTERVAL:
        return packed.tobytes()
    synced = SyncedPayload(packed)
    synced.every = SYNC_INTERVAL
    synced.sync = np.diff(ends[SYNC_INTERVAL - 1 : -1 : SYNC_INTERVAL], prepend=0)
    if int(synced.sync.max()) > 0xFFFF:
        raise EncodingError("Huffman sync distance does not fit 16 bits")
    return synced


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
    return _with_sync(acc[:total_bytes].astype(np.uint8), ends)


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
    return _with_sync(np.packbits(bits), ends)
