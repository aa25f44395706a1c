"""Canonical Huffman coding for integer symbol streams.

The SZ family encodes quantisation bins with Huffman coding before a
final dictionary/LZ pass.  The model is arrays throughout:

* A :class:`Histogram` is two aligned arrays, distinct symbols ascending
  and their counts (``np.bincount`` over quantiser output's bounded span).
* :func:`huffman_code_lengths` orders the leaves by (count, symbol) with
  one ``lexsort`` and merges them two-queue style (van Leeuwen, 1976): the
  one per-symbol Python left is that merge scan over plain ints, which
  records parents; pointer jumping turns them into depths.
  :func:`length_limited_code_lengths` caps them at :data:`MAX_CODE_LENGTH`
  bits and repairs the Kraft sum in whole vectorised passes.
* A :class:`HuffmanCodebook` is symbols and lengths sorted by symbol; its
  canonical codes are one ``lexsort`` and an exclusive prefix sum.  The
  quality features read :meth:`HuffmanCodebook.zero_symbol_share` (the
  paper's ``P0``) off the unlimited lengths without encoding anything.

Encoding gathers per-symbol codes and lengths through dense tables and
packs the stream from cumulative bit offsets: three ``np.bincount`` byte
sums for codes of <= 16 bits (:func:`_pack_codes_16`), ``np.repeat`` +
``np.packbits`` otherwise (:func:`_pack_codes`, the general reference).
The same offsets give the *sync index* — where symbols ``K, 2K, ...``
start — that a stream of more than K symbols carries as a
:class:`SyncedPayload`.  Decoding lives in :mod:`.huffman_decode`.
A codebook serialises densely: ``i64 lo``, then one ``u8`` code length
per value of ``lo..hi`` (0: no code), from which the canonical codes
follow (RFC 1951 §3.2.2); an alphabet too wide for that stores int64
(symbol, length) pairs, the layout container versions 1 and 2 used for
every book (:meth:`HuffmanCodebook.from_pairs` reads those).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ...errors import EncodingError
from .huffman_decode import _LUT_MAX_BITS, HuffmanStream, LutDecoder
from .huffman_decode import decode_bitloop as _decode_bitloop

__all__ = [
    "Histogram", "HuffmanCodebook", "HuffmanCodec", "HuffmanStream", "SYNC_INTERVAL",
    "SyncedPayload", "huffman_code_lengths", "length_limited_code_lengths",
    "symbol_frequencies", "pooled_symbol_frequencies", "MAX_CODE_LENGTH",
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


class Histogram(NamedTuple):
    """How often each symbol occurs: distinct ``symbols`` ascending, positive ``counts``."""

    symbols: np.ndarray
    counts: np.ndarray


def _leaf_depths(weights: List[int]) -> np.ndarray:
    """Depth of each leaf of the Huffman tree over ``weights`` (ascending, two or more).

    Two queues: the leaves, and merged nodes as they are made (sums never
    decrease, so it stays sorted).  Each step takes the two cheapest
    heads, a merged node only when strictly cheaper than the next leaf —
    the tie-break every stored codebook was built with — and records
    their parent; pointer jumping sums the depths.
    """
    n = len(weights)
    leaf = weights + [float("inf")]
    merged = [float("inf")] * n  # the j-th merged node's weight, once made
    parent = list(range(2 * n - 1))
    i = j = 0
    for node in range(n, 2 * n - 1):
        if merged[j] < leaf[i]:
            first, parent[n + j], j = merged[j], node, j + 1
        else:
            first, parent[i], i = leaf[i], node, i + 1
        if merged[j] < leaf[i]:
            merged[node - n], parent[n + j], j = first + merged[j], node, j + 1
        else:
            merged[node - n], parent[i], i = first + leaf[i], node, i + 1
    up = np.array(parent, dtype=np.intp)
    depth = np.ones(up.size, dtype=np.int64)
    depth[-1] = 0
    while np.any(up != up[-1]):
        depth += depth[up]
        up = up[up]
    return depth[:n]


def huffman_code_lengths(frequencies: Histogram) -> np.ndarray:
    """The (unlimited) Huffman code length of each symbol, aligned with it.

    A single-symbol alphabet is assigned a 1-bit code.
    """
    symbols, counts = frequencies
    lengths = np.ones(counts.size, dtype=np.int64)
    if counts.size > 1:
        leaves = np.lexsort((symbols, counts))
        lengths[leaves] = _leaf_depths(counts[leaves].tolist())
    return lengths


def length_limited_code_lengths(
    frequencies: Histogram, max_length: int = MAX_CODE_LENGTH
) -> np.ndarray:
    """Huffman code lengths capped at ``max_length`` bits.

    Lengths exceeding the cap are clamped and the Kraft inequality is
    repaired by lengthening the least-frequent symbols, round-robin in
    (count, symbol) order; leftover slack is then spent shortening the
    most frequent ones.  The result is always a prefix code and equals
    the exact Huffman lengths whenever those already fit the cap.
    """
    lengths = huffman_code_lengths(frequencies)
    n = lengths.size
    if n <= 1:
        return lengths
    # A prefix code over n symbols needs at least ceil(log2(n)) bits.
    cap = max(int(max_length), int(np.ceil(np.log2(n))))
    if int(lengths.max()) <= cap:
        return lengths
    symbols, counts = frequencies
    lengths = np.minimum(lengths, cap)
    budget = 1 << cap
    kraft = int(np.sum(1 << (cap - lengths)))
    cheapest = np.lexsort((symbols, counts))
    ordered = lengths[cheapest]
    while kraft > budget:
        # One pass lengthens every code under the cap, stopping at the
        # first whose gain brings the sum within budget.
        run = np.cumsum((1 << (cap - ordered)) >> 1)
        stop = int(np.searchsorted(run, kraft - budget))
        passed = ordered[: stop + 1]
        passed += passed < cap
        kraft -= int(run[min(stop, n - 1)])
    lengths[cheapest] = ordered
    slack = budget - kraft
    dearest = np.lexsort((symbols, -counts))
    ordered = lengths[dearest]
    at = 0
    while slack:
        # Slack only shrinks: a symbol too dear to shorten now stays so.
        rest = ordered[at:]
        fits = np.flatnonzero((rest > 1) & ((1 << (cap - rest)) <= slack))
        if not fits.size:
            break
        at += int(fits[0])
        while ordered[at] > 1 and 1 << (cap - int(ordered[at])) <= slack:
            slack -= 1 << (cap - int(ordered[at]))
            ordered[at] -= 1
        at += 1
    lengths[dearest] = ordered
    return lengths


def symbol_frequencies(arr: np.ndarray) -> Histogram:
    """The :class:`Histogram` of ``arr`` (as int64).

    Uses ``np.bincount`` over the value span when it is bounded — which
    quantiser output guarantees — and falls back to ``np.unique`` for
    pathologically wide alphabets.
    """
    arr = np.asarray(arr, dtype=np.int64).ravel()
    if arr.size == 0:
        return Histogram(arr, arr)
    lo = int(arr.min())
    span = int(arr.max()) - lo + 1
    if span > _DENSE_SPAN_LIMIT:
        return Histogram(*np.unique(arr, return_counts=True))
    counts = np.bincount(arr - lo, minlength=span)
    present = np.flatnonzero(counts)
    return Histogram(present + lo, counts[present])


def pooled_symbol_frequencies(streams: Sequence[np.ndarray]) -> Histogram:
    """:func:`symbol_frequencies` of several streams counted together."""
    pooled = [arr for arr in (np.asarray(s, dtype=np.int64).ravel() for s in streams) if arr.size]
    if not pooled:
        return symbol_frequencies(np.zeros(0))
    lo = min(int(arr.min()) for arr in pooled)
    span = max(int(arr.max()) for arr in pooled) - lo + 1
    if span > _DENSE_SPAN_LIMIT:
        return Histogram(*np.unique(np.concatenate(pooled), return_counts=True))
    counts = np.zeros(span, dtype=np.int64)
    for arr in pooled:
        counts += np.bincount(arr - lo, minlength=span)
    present = np.flatnonzero(counts)
    return Histogram(present + lo, counts[present])


@dataclass(eq=False)
class HuffmanCodebook:
    """A canonical Huffman codebook: ``symbols`` ascending, their ``lengths`` and ``codes``.

    Codes are canonical — assigned in (length, symbol) order, each the
    previous plus one shifted to its length — and derived on
    construction, which refuses lengths that are not a prefix code.
    """

    symbols: np.ndarray
    lengths: np.ndarray
    codes: np.ndarray = field(init=False, repr=False)
    #: Lazily built dense encode tables: (lo, code_table, length_table).
    _dense: Optional[Tuple[int, np.ndarray, np.ndarray]] = field(
        default=None, init=False, repr=False
    )

    def __post_init__(self) -> None:
        self.symbols = np.asarray(self.symbols, dtype=np.int64)
        self.lengths = np.asarray(self.lengths, dtype=np.int64)
        self.codes = np.zeros(self.symbols.size, dtype=np.uint64)
        if not self.symbols.size:
            return
        if int(self.lengths.min()) < 1 or int(self.lengths.max()) > 64:
            raise EncodingError("Huffman code lengths must lie in [1, 64]")
        if np.any(self.symbols[1:] <= self.symbols[:-1]):
            raise EncodingError("Huffman codebook symbols must be strictly increasing")
        per_length = np.bincount(self.lengths, minlength=65).tolist()
        if sum(count << (64 - n) for n, count in enumerate(per_length)) > 1 << 64:
            raise EncodingError("Huffman code lengths are not a prefix code (Kraft sum > 1)")
        # Code i, read as a binary fraction, is the Kraft sum of the codes
        # before it: an exclusive prefix sum at the longest length, shifted
        # down to each code's own (uint64 wraparound keeps it exact).
        order = np.lexsort((self.symbols, self.lengths))
        shift = np.uint64(self.lengths[order[-1]]) - self.lengths[order].astype(np.uint64)
        step = np.left_shift(np.uint64(1), shift)
        self.codes[order] = (np.cumsum(step) - step) >> shift

    @classmethod
    def from_frequencies(
        cls, frequencies: Histogram, max_length: Optional[int] = None
    ) -> "HuffmanCodebook":
        """Build a canonical codebook from a symbol :class:`Histogram`.

        ``max_length`` caps code lengths (length-limited canonical code);
        ``None`` keeps the exact, unlimited Huffman lengths — what the
        quality-prediction features expect.
        """
        if max_length is None:
            return cls(frequencies.symbols, huffman_code_lengths(frequencies))
        return cls(frequencies.symbols, length_limited_code_lengths(frequencies, max_length))

    def encoded_bit_size(self, frequencies: Histogram) -> int:
        """Total encoded size in bits for the given symbol frequencies."""
        return int(np.dot(self._lengths_of(frequencies.symbols), frequencies.counts))

    def zero_symbol_share(self, frequencies: Histogram, zero_symbol: int) -> float:
        """Fraction of encoded bits spent on ``zero_symbol`` (the paper's P0)."""
        total = self.encoded_bit_size(frequencies)
        zero = Histogram(*(part[frequencies.symbols == zero_symbol] for part in frequencies))
        return self.encoded_bit_size(zero) / total if total else 0.0

    def _lengths_of(self, symbols: np.ndarray) -> np.ndarray:
        """Code length of each of ``symbols`` (ascending), 0 where the book has none."""
        if not self.symbols.size:
            return np.zeros(symbols.size, dtype=np.int64)
        at = np.minimum(np.searchsorted(self.symbols, symbols), self.symbols.size - 1)
        return np.where(self.symbols[at] == symbols, self.lengths[at], 0)

    def max_length(self) -> int:
        """Longest code length in the book (0 for an empty book)."""
        return int(self.lengths.max()) if self.lengths.size else 0

    def serialize(self) -> bytes:
        """``i64 lo`` then ``u8 length[hi - lo + 1]`` (0: absent); wider than the dense
        tables, ``i64 lo``, a 0 byte (never ``lo``'s own length), then int64 pairs."""
        lo = int(self.symbols[0]) if self.symbols.size else 0
        head = np.int64(lo).astype("<i8").tobytes()
        span = int(self.symbols[-1]) - lo + 1 if self.symbols.size else 0
        if span > _DENSE_SPAN_LIMIT:
            pairs = np.column_stack((self.symbols, self.lengths)).astype("<i8")
            return head + b"\0" + pairs.tobytes()
        lengths = np.zeros(span, dtype=np.uint8)
        lengths[self.symbols - lo] = self.lengths
        return head + lengths.tobytes()

    @classmethod
    def deserialize(cls, payload: bytes) -> "HuffmanCodebook":
        """Rebuild a codebook from :meth:`serialize` output; :class:`EncodingError`
        unless it is a prefix code whose symbols fit int64."""
        if len(payload) < 8:
            raise EncodingError(f"corrupt Huffman codebook payload ({len(payload)} bytes)")
        lo = int(np.frombuffer(payload[:8], dtype="<i8")[0])
        if payload[8:9] == b"\0":
            book = cls.from_pairs(payload[9:])
            if not book.symbols.size or int(book.symbols[0]) != lo:
                raise EncodingError("corrupt Huffman codebook: its pairs do not start at lo")
            return book
        lengths = np.frombuffer(payload, dtype=np.uint8, offset=8)
        present = np.flatnonzero(lengths)
        if present.size and lo + int(present[-1]) > np.iinfo(np.int64).max:
            raise EncodingError("Huffman codebook symbols run past int64")
        return cls(present + lo, lengths[present])

    @classmethod
    def from_pairs(cls, payload: bytes) -> "HuffmanCodebook":
        """A codebook as container versions 1 and 2 stored it: int64 (symbol, length)
        pairs; :class:`EncodingError` unless whole pairs of a prefix code over
        ascending symbols."""
        if len(payload) % 16:
            raise EncodingError(f"corrupt Huffman codebook payload ({len(payload)} bytes)")
        pairs = np.frombuffer(payload, dtype="<i8").reshape(-1, 2)
        return cls(pairs[:, 0], pairs[:, 1])

    # ------------------------------------------------------------------ #
    # Encode tables
    # ------------------------------------------------------------------ #
    def dense_tables(self) -> Optional[Tuple[int, np.ndarray, np.ndarray]]:
        """``(lo, code_table, length_table)`` spanning the symbol range.

        ``length_table`` is 0 for values with no code.  Returns ``None``
        when the book is empty or its value span is too wide to densify.
        """
        if self._dense is None and self.symbols.size:
            lo = int(self.symbols[0])
            span = int(self.symbols[-1]) - lo + 1
            if span > _DENSE_SPAN_LIMIT:
                return None
            code_table = np.zeros(span, dtype=np.uint64)
            length_table = np.zeros(span, dtype=np.uint8)
            code_table[self.symbols - lo] = self.codes
            length_table[self.symbols - lo] = self.lengths
            self._dense = (lo, code_table, length_table)
        return self._dense

    def lookup(self, arr: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Vectorised per-symbol ``(codes, lengths)`` for ``arr``;
        :class:`EncodingError` if any symbol in ``arr`` has no code in this book."""
        tables = self.dense_tables()
        if tables is None:
            return self._sparse_lookup(arr)
        lo, code_table, length_table = tables
        shifted = arr - lo
        if shifted.size and (
            int(shifted.min()) < 0 or int(shifted.max()) >= length_table.size
        ):
            raise _uncovered()
        lens = length_table[shifted]
        if shifted.size and int(lens.min()) == 0:
            raise _uncovered()
        return code_table[shifted], lens

    def _sparse_lookup(self, arr: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``lookup`` for alphabets too wide for a dense value table."""
        if not self.symbols.size:
            raise _uncovered()
        idx = np.minimum(np.searchsorted(self.symbols, arr), self.symbols.size - 1)
        if arr.size and not bool(np.all(self.symbols[idx] == arr)):
            raise _uncovered()
        return self.codes[idx], self.lengths[idx].astype(np.uint8)


def _uncovered() -> EncodingError:
    return EncodingError("Huffman codebook has no code for a symbol of the stream")


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
        """Encode ``symbols`` as ``(payload, codebook_bytes, count)``, all three needed to decode."""
        arr = np.asarray(symbols, dtype=np.int64).ravel()
        count = int(arr.size)
        if count == 0:
            return b"", b"", 0
        frequencies = symbol_frequencies(arr)
        book = HuffmanCodebook.from_frequencies(frequencies, max_length=MAX_CODE_LENGTH)
        return self.encode_with_book(arr, book), book.serialize(), count

    def encode_with_book(self, symbols: np.ndarray, book: HuffmanCodebook) -> bytes:
        """Encode ``symbols`` against an existing (e.g. shared) codebook;
        :class:`EncodingError` if ``book`` has no code for one of them."""
        arr = np.asarray(symbols, dtype=np.int64).ravel()
        if arr.size == 0:
            return b""
        codes, lens = book.lookup(arr)
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
            book = _decodable_book(codebook_bytes)
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
        """Reference bit-at-a-time decoder (the seed implementation): the fallback for
        books too long for a LUT and the baseline the throughput benchmark measures."""
        if count == 0:
            return np.zeros(0, dtype=np.int64)
        return _decode_bitloop(payload, _decodable_book(codebook_bytes), count)


def _decodable_book(codebook_bytes: bytes) -> HuffmanCodebook:
    book = HuffmanCodebook.deserialize(codebook_bytes)
    if not book.symbols.size:
        raise EncodingError("cannot decode with an empty Huffman codebook")
    return book


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
