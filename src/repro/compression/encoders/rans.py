"""Interleaved static rANS entropy coding for integer symbol streams.

The pipeline's third entropy stage (``entropy_stage="rans"``).  Where the
Huffman coder spends whole bits per symbol, rANS (range Asymmetric
Numeral Systems) packs symbols at fractional-bit cost against a
quantised probability model, whose table (6 bytes per symbol raw against
a Huffman codebook's 16) pools into shared per-file models like a book.

Design (all of it NumPy-vectorised; there is no per-symbol Python loop):

* **Probability model.**  Raw symbol counts are quantised to integer
  frequencies summing to exactly ``PROB_SCALE = 2**12`` (largest-
  remainder apportionment, every present symbol keeps frequency >= 1).
  Alphabets larger than 4096 distinct symbols cannot be represented —
  the pipeline falls back to another codec for such blocks.
* **State.**  One 32-bit state per lane, renormalised in 16-bit words:
  states live in ``[2**16, 2**32)`` and each symbol step emits at most
  one word, so the encode/decode loops never iterate their
  renormalisation step.
* **N-way interleaving.**  A ``count``-symbol stream is viewed as a
  ``(rounds, N)`` matrix (symbol ``i`` belongs to lane ``i % N``); each
  round encodes/decodes one symbol on every lane with a handful of
  NumPy gathers and arithmetic ops.  ``N`` is the largest power of two
  that leaves every lane ``_MIN_LANE_SYMBOLS`` symbols, up to the codec's
  ``max_lanes``.  A file's streams share their rounds (below), so the
  file's block plan supplies the width: :func:`lane_limit` of its block
  count is the smallest power of two ``p`` with ``blocks * p >= MAX_LANES``
  (256 for 18 blocks, ``MAX_LANES`` for one), and a stream pays its 4
  bytes of final state per lane only for the width its batch needs
  (Giesen, "Interleaved entropy coders", arXiv:1402.3392).
* **Word stream.**  All lanes share one word stream: round by round, the
  words of the lanes that renormalised, in ascending lane order.  The
  encoder walks rounds in reverse keeping every lane's low word and
  renormalisation flag in a ``(rounds, lanes)`` matrix each, so the stream
  is the flagged words in C order, the order the decoder consumes them.
  Because a decoder renormalises exactly when the encoder emitted, no
  per-lane word counts are needed — only the ``N`` final states.
* **Batch encode and decode.**  A file's streams are coded in lockstep:
  streams with the same round count share one state vector, each lane
  reading its own table's frequencies (encode) or slots (decode) and its
  own stream's symbols or words, so a file pays its Python rounds once
  per round count, not once per block.  A lone stream is a batch of one.

Payload layout (little-endian)::

    u8 version | u8 log2(lanes) | u16 reserved | u32 n_words | u64 count
    u32 state[lanes]
    u16 word[n_words]

Frequency-table layout (little-endian)::

    u8 version | u8 flags | u16 n_symbols-1 | i64 lo
    u32 gap[n_symbols]      version 2: symbol - previous - 1 (the first is 0)
                            version 1, still read: symbol - lo
    u16 freq[n_symbols]     (quantised, positive, sums to PROB_SCALE)

Quantiser alphabets are nearly contiguous, so the gaps are mostly zero and
deflate shrinks them to almost nothing.  Symbols strictly increase and span
less than ``2**32``; a table that breaks either, or whose size is not exactly
its layout's, fails with :class:`EncodingError`.
"""

from __future__ import annotations

import struct
import threading
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ...errors import EncodingError
from .huffman import Histogram

__all__ = [
    "RansFrequencyTable", "RansCodec", "quantize_frequencies", "lane_limit", "payload_head_size",
    "PROB_BITS", "PROB_SCALE", "MAX_TABLE_SYMBOLS",
]

#: Probability resolution: frequencies are quantised to sum to ``2**12``.
PROB_BITS = 12
PROB_SCALE = 1 << PROB_BITS

#: Lower bound of the normalised state interval (16-bit renormalisation).
RANS_L = 1 << 16

#: Largest alphabet a 12-bit table can represent (every symbol needs
#: frequency >= 1).
MAX_TABLE_SYMBOLS = PROB_SCALE

#: Interleaving width bounds.  ``MAX_LANES`` is the width of one batch's
#: state vector (a lone stream's at most, 16 KiB of final states): 4096
#: lanes roughly halve the Python-level rounds' share of a 1M-symbol decode
#: against 1024, and wider is past the point of diminishing returns.
#: ``_MIN_LANE_SYMBOLS`` keeps lanes long enough that the fixed per-round
#: NumPy dispatch cost is amortised.
MAX_LANES = 4096
_MIN_LANE_SYMBOLS = 32

#: Encode-side symbol lookups use dense gather tables when the alphabet
#: span fits; beyond this they fall back to ``searchsorted``.
_DENSE_SPAN_LIMIT = 1 << 22

#: ``x >= (freq << _RENORM_SHIFT)`` is the encoder's emit condition.
_RENORM_SHIFT = 32 - PROB_BITS  # 20

_PAYLOAD_VERSION = 1
_PAYLOAD_HEADER = struct.Struct("<BBHIQ")
_TABLE_VERSION = 2
_TABLE_HEADER = struct.Struct("<BBHq")


def quantize_frequencies(counts: np.ndarray) -> np.ndarray:
    """Quantise raw counts to integer frequencies summing to ``PROB_SCALE``.

    Largest-remainder apportionment over a budget of ``PROB_SCALE - n``
    (each of the ``n`` symbols is then topped up by 1), so every present
    symbol keeps a frequency of at least 1 no matter how skewed the
    input is.  Fully deterministic: ties break on larger raw count, then
    lower index.
    """
    arr = np.asarray(counts, dtype=np.int64).ravel()
    n = int(arr.size)
    if n == 0:
        raise EncodingError("cannot quantise an empty frequency set")
    if n > MAX_TABLE_SYMBOLS:
        raise EncodingError(
            f"alphabet of {n} symbols exceeds the {MAX_TABLE_SYMBOLS}-entry rANS table"
        )
    if np.any(arr <= 0):
        raise EncodingError("symbol counts must be positive")
    total = int(arr.sum())
    budget = PROB_SCALE - n
    scaled = arr * budget
    quant = scaled // total + 1  # the +1 is each symbol's guaranteed slot
    deficit = PROB_SCALE - int(quant.sum())
    if deficit:
        remainder = scaled % total
        order = np.lexsort((np.arange(n), -arr, -remainder))
        bump = np.zeros(n, dtype=np.int64)
        np.add.at(bump, order[np.arange(deficit) % n], 1)
        quant += bump
    return quant.astype(np.uint16)


def payload_head_size(payload: bytes) -> int:
    """Bytes of ``payload`` before its words: the header and the lane states."""
    if len(payload) < _PAYLOAD_HEADER.size:
        return len(payload)
    return min(len(payload), _PAYLOAD_HEADER.size + (4 << payload[1]))


def _pick_lanes(count: int, cap: int = MAX_LANES) -> int:
    """Widest power-of-two interleave, up to ``cap``, that keeps lanes usefully long."""
    lanes = 1
    while lanes < cap and (count >> 1) // lanes >= _MIN_LANE_SYMBOLS:
        lanes <<= 1
    return lanes


def lane_limit(blocks: int) -> int:
    """The lanes a stream of a ``blocks``-block file may take: the smallest power
    of two ``p`` with ``blocks * p >= MAX_LANES``, so its batch fills the width."""
    return max(1, MAX_LANES >> (blocks.bit_length() - 1))


class RansFrequencyTable:
    """Quantised symbol frequencies plus derived encode/decode tables."""

    __slots__ = (
        "symbols", "freqs", "cum", "_encode_tables", "_slot_tables", "_serialized",
    )

    def __init__(self, symbols: np.ndarray, freqs: np.ndarray) -> None:
        self.symbols = np.asarray(symbols, dtype=np.int64)
        self.freqs = np.asarray(freqs, dtype=np.uint32)
        if self.symbols.size != self.freqs.size or not 0 < self.symbols.size <= MAX_TABLE_SYMBOLS:
            raise EncodingError(f"rANS table needs 1-{MAX_TABLE_SYMBOLS} symbols, a freq each")
        if not self.freqs.all() or int(self.freqs.sum()) != PROB_SCALE:
            raise EncodingError("rANS table frequencies must be positive and sum to PROB_SCALE")
        if np.any(self.symbols[1:] <= self.symbols[:-1]):
            raise EncodingError("rANS table symbols must strictly increase")
        cum = np.zeros(self.symbols.size, dtype=np.uint32)
        np.cumsum(self.freqs[:-1], out=cum[1:])
        self.cum = cum
        self._encode_tables: Optional[Tuple] = None
        self._slot_tables: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None
        self._serialized: Optional[bytes] = None

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def try_from_frequencies(
        cls, frequencies: Histogram
    ) -> Optional["RansFrequencyTable"]:
        """Build a table, or ``None`` when the alphabet cannot fit one.

        The two unrepresentable cases are alphabets above
        :data:`MAX_TABLE_SYMBOLS` entries and symbol spans wider than the
        32-bit offsets of the serialised layout.
        """
        symbols, counts = frequencies
        if not 0 < symbols.size <= MAX_TABLE_SYMBOLS:
            return None
        if int(symbols[-1]) - int(symbols[0]) >= 1 << 32:
            return None
        return cls(symbols, quantize_frequencies(counts))

    # ------------------------------------------------------------------ #
    # Serialisation
    # ------------------------------------------------------------------ #
    def serialize(self) -> bytes:
        if self._serialized is None:
            lo = int(self.symbols[0])
            gaps = (np.diff(self.symbols - lo, prepend=-1) - 1).astype("<u4")
            header = _TABLE_HEADER.pack(_TABLE_VERSION, 0, self.symbols.size - 1, lo)
            self._serialized = header + gaps.tobytes() + self.freqs.astype("<u2").tobytes()
        return self._serialized

    @classmethod
    def deserialize(cls, data: bytes) -> "RansFrequencyTable":
        if len(data) < _TABLE_HEADER.size:
            raise EncodingError("truncated rANS frequency table")
        version, _flags, n_minus_1, lo = _TABLE_HEADER.unpack_from(data)
        if version not in (1, _TABLE_VERSION):
            raise EncodingError(f"unsupported rANS table version {version}")
        n = n_minus_1 + 1
        if len(data) != _TABLE_HEADER.size + 6 * n:
            raise EncodingError(f"a rANS table of {n} symbols is not {len(data)} bytes")
        offsets = np.frombuffer(data, "<u4", n, _TABLE_HEADER.size).astype(np.int64)
        if version == 2:
            offsets = np.cumsum(offsets + 1) - 1
            if offsets[-1] >> 32:
                raise EncodingError("rANS table spans 2**32 symbols or more")
        freqs = np.frombuffer(data, "<u2", n, _TABLE_HEADER.size + 4 * n)
        return cls(lo + offsets, freqs.astype(np.uint32))

    # ------------------------------------------------------------------ #
    # Derived lookup tables
    # ------------------------------------------------------------------ #
    def _encode_lookup(self) -> Tuple:
        if self._encode_tables is None:
            lo = int(self.symbols[0])
            span = int(self.symbols[-1]) - lo + 1
            if span <= _DENSE_SPAN_LIMIT:
                f_of = np.zeros(span, dtype=np.uint32)
                c_of = np.zeros(span, dtype=np.uint32)
                idx = self.symbols - lo
                f_of[idx] = self.freqs
                c_of[idx] = self.cum
                self._encode_tables = ("dense", lo, span, f_of, c_of)
            else:
                self._encode_tables = ("sparse",)
        return self._encode_tables

    def gather_freq_cum(self, arr: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Per-symbol ``(freq, cum)`` arrays; :class:`EncodingError` if the table
        lacks a symbol of ``arr``."""
        tables = self._encode_lookup()
        if tables[0] == "dense":
            _, lo, span, f_of, c_of = tables
            off = arr - lo
            if not off.size or (int(off.min()) >= 0 and int(off.max()) < span):
                f = f_of[off]
                if f.all():
                    return f, c_of[off]
        else:
            pos = np.searchsorted(self.symbols, arr)
            pos[pos >= self.symbols.size] = 0
            if np.array_equal(self.symbols[pos], arr):
                return self.freqs[pos], self.cum[pos]
        raise EncodingError("rANS table has no frequency for a symbol of the stream")

    def slot_tables(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Decode gather tables indexed by ``state & (PROB_SCALE - 1)``.

        Returns ``(slot_sym, slot_freq, slot_rel)`` where ``slot_rel`` is
        ``slot - cum[symbol(slot)]`` so the decode step is a single
        gather + add.
        """
        if self._slot_tables is None:
            idx = np.repeat(
                np.arange(self.symbols.size, dtype=np.int64), self.freqs.astype(np.int64)
            )
            slots = np.arange(PROB_SCALE, dtype=np.uint32)
            self._slot_tables = (
                self.symbols[idx],
                self.freqs[idx],
                slots - self.cum[idx],
            )
        return self._slot_tables

    def modal_freq_cum(self) -> Tuple[int, int]:
        """``(freq, cum)`` of the most probable symbol (used for padding)."""
        best = int(np.argmax(self.freqs))
        return int(self.freqs[best]), int(self.cum[best])


class RansCodec:
    """Encode/decode integer symbol arrays with interleaved static rANS; it encodes a
    stream in at most ``max_lanes`` lanes (:func:`lane_limit` of its file's plan)."""

    #: Decode tables are cached per serialised table so shared-table
    #: blobs expand their slot gathers once per file, not once per block.
    _TABLE_CACHE_SIZE = 8

    def __init__(self, max_lanes: int = MAX_LANES) -> None:
        self.max_lanes = max_lanes
        self._tables: Dict[bytes, RansFrequencyTable] = {}
        self._cache_lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # Encoding
    # ------------------------------------------------------------------ #
    def encode_with_table(self, symbols: np.ndarray, table: RansFrequencyTable) -> bytes:
        """Encode against an existing (e.g. shared) table; :class:`EncodingError` if it
        lacks a symbol."""
        return self.encode_streams([(symbols, table)])[0]

    def encode_streams(
        self, streams: Sequence[Tuple[np.ndarray, RansFrequencyTable]]
    ) -> List[bytes]:
        """Encode ``(symbols, table)`` streams as one batch, as :meth:`decode_streams` decodes.

        Streams with the same round count walk their rounds backwards in
        lockstep, as one state vector; each stream's bytes are those it has
        alone: its lanes depend on its length and ``max_lanes``, never on the
        batch.  A table that lacks one of its stream's symbols fails the batch
        with :class:`EncodingError`.
        """
        coded = [(np.asarray(symbols, dtype=np.int64).ravel(), table) for symbols, table in streams]
        out: List[bytes] = [b""] * len(coded)
        by_rounds: Dict[int, List[int]] = {}
        for i, (arr, _) in enumerate(coded):
            if arr.size:
                rounds = -(-arr.size // _pick_lanes(arr.size, self.max_lanes))
                by_rounds.setdefault(rounds, []).append(i)
        for rounds, members in by_rounds.items():
            batch = [coded[i] for i in members]
            for i, payload in zip(members, _encode_lockstep(batch, rounds, self.max_lanes)):
                out[i] = payload
        return out

    # ------------------------------------------------------------------ #
    # Decoding
    # ------------------------------------------------------------------ #
    def decode(self, payload: bytes, table_bytes: bytes, count: int) -> np.ndarray:
        """Decode ``count`` symbols from ``payload`` using the table."""
        return self.decode_streams([(payload, table_bytes, count)])[0]

    def decode_streams(self, streams: Sequence[Tuple[bytes, bytes, int]]) -> List[np.ndarray]:
        """Decode ``(payload, table_bytes, count)`` streams as one batch.

        Streams with the same round count decode side by side, in
        lockstep: their lanes form one state vector, their slot tables
        are concatenated (a lane adds its table's ``PROB_SCALE`` offset)
        and each lane refills from its own stream's words.  A corrupt
        stream anywhere fails the whole batch with :class:`EncodingError`.
        """
        out = [np.zeros(0, dtype=np.int64) for _ in streams]
        parsed, by_rounds = {}, {}
        for i, (payload, table_bytes, count) in enumerate(streams):
            if count:
                parsed[i] = _parse_payload(payload, count) + (self._table(table_bytes),)
                by_rounds.setdefault(-(-count // parsed[i][0].size), []).append(i)
        for rounds, members in by_rounds.items():
            for i, symbols in zip(members, _decode_lockstep([parsed[i] for i in members], rounds)):
                out[i] = symbols[: streams[i][2]]
        return out

    def _table(self, table_bytes: bytes) -> RansFrequencyTable:
        with self._cache_lock:
            table = self._tables.get(table_bytes)
        if table is None:
            table = RansFrequencyTable.deserialize(table_bytes)
            with self._cache_lock:
                while len(self._tables) >= self._TABLE_CACHE_SIZE:
                    self._tables.pop(next(iter(self._tables)))
                self._tables[table_bytes] = table
        return table


def _encode_lockstep(streams: Sequence[Tuple], rounds: int, cap: int) -> List[bytes]:
    """Each ``(symbols, table)`` stream's payload."""
    edges = np.cumsum([0] + [_pick_lanes(arr.size, cap) for arr, _ in streams])
    freq = np.empty((rounds, edges[-1]), dtype=np.uint32)
    cum = np.empty_like(freq)
    for stream, a, b in zip(streams, edges[:-1], edges[1:]):
        _lay_out(freq[:, a:b], cum[:, a:b], stream)
    x = np.full(edges[-1], RANS_L, dtype=np.uint32)
    words = np.empty(freq.shape, dtype="<u2")
    emitted = np.empty(freq.shape, dtype=bool)
    for r in range(rounds - 1, -1, -1):
        f, renorm = freq[r], emitted[r]
        np.greater_equal(x >> _RENORM_SHIFT, f, out=renorm)
        words[r] = x  # every lane's low word; ``emitted`` picks the ones written
        x >>= renorm.view(np.uint8) * 16  # 16 bits off the lanes that wrote a word
        # == ((x // f) << PROB_BITS) + x % f + cum; this form stays in uint32.
        x += x // f * (PROB_SCALE - f) + cum[r]
    out = []
    for (arr, _), a, b in zip(streams, edges[:-1], edges[1:]):
        kept = np.extract(emitted[:, a:b], words[:, a:b])  # its flagged words, C order
        log2_lanes = int(b - a).bit_length() - 1
        header = _PAYLOAD_HEADER.pack(_PAYLOAD_VERSION, log2_lanes, 0, kept.size, arr.size)
        out.append(header + x[a:b].astype("<u4").tobytes() + kept.tobytes())
    return out


def _lay_out(freq: np.ndarray, cum: np.ndarray, stream: Tuple) -> None:
    """Fill a ``(symbols, table)`` stream's ``(rounds, lanes)`` columns with its
    ``(freq, cum)``, padded with the modal symbol."""
    symbols, table = stream
    gathered = table.gather_freq_cum(symbols)
    for dst, values, pad in zip((freq, cum), gathered, table.modal_freq_cum()):
        padding = np.full(dst.size - values.size, pad, dtype=np.uint32)
        dst[...] = np.concatenate([values, padding]).reshape(dst.shape)


def _parse_payload(payload: bytes, count: int) -> Tuple[np.ndarray, np.ndarray]:
    """A payload's lane states and words, after every header check."""
    if len(payload) < _PAYLOAD_HEADER.size:
        raise EncodingError("truncated rANS payload")
    version, log2_lanes, _reserved, n_words, stored = _PAYLOAD_HEADER.unpack_from(payload)
    if version != _PAYLOAD_VERSION:
        raise EncodingError(f"unsupported rANS payload version {version}")
    if stored != count:
        raise EncodingError(f"rANS payload holds {stored} symbols but {count} were requested")
    lanes = 1 << log2_lanes
    if len(payload) < _PAYLOAD_HEADER.size + 4 * lanes + 2 * n_words:
        raise EncodingError("truncated rANS payload")
    x = np.frombuffer(payload, "<u4", lanes, _PAYLOAD_HEADER.size)
    words = np.frombuffer(payload, "<u2", n_words, _PAYLOAD_HEADER.size + 4 * lanes)
    return x.astype(np.uint32), words.astype(np.uint32)


def _decode_lockstep(streams: Sequence[Tuple], rounds: int) -> List[np.ndarray]:
    """Each ``(states, words, table)`` stream's ``rounds * lanes`` symbols, padding included."""
    tables = {id(table): table for _, _, table in streams}
    slot_sym, slot_freq, slot_rel = (
        np.concatenate(parts) for parts in zip(*(t.slot_tables() for t in tables.values()))
    )
    offset = {key: i * PROB_SCALE for i, key in enumerate(tables)}
    lanes = [x.size for x, _, _ in streams]
    base = np.repeat(np.array([offset[id(t)] for _, _, t in streams], np.uint32), lanes)
    edges = np.cumsum([0] + lanes)
    x = np.concatenate([x for x, _, _ in streams])
    # A trailing zero word keeps an overrunning stream's reads in bounds;
    # the check after the loop rejects it.
    words = np.concatenate([w for _, w, _ in streams] + [np.zeros(1, np.uint32)])
    sizes = [w.size for _, w, _ in streams]
    ends = np.cumsum(sizes)
    wp = ends - sizes  # each stream's next unread word
    ramp = np.arange(x.size)
    out = np.empty((rounds, x.size), dtype=np.int64)
    for r in range(rounds):
        slot = x & (PROB_SCALE - 1)
        slot |= base
        out[r] = slot_sym.take(slot)
        x >>= PROB_BITS
        x *= slot_freq.take(slot)
        x += slot_rel.take(slot)
        idx = np.flatnonzero(x < RANS_L)
        if idx.size:
            # The renormalising lanes, ascending, read their own stream's
            # next words in order: stream j's are idx[first[j]:first[j+1]].
            first = idx.searchsorted(edges)
            k = first[1:] - first[:-1]
            pos = (wp - first[:-1]).repeat(k)
            pos += ramp[: idx.size]
            wp += k
            x[idx] = (x.take(idx) << 16) | words.take(pos, mode="clip")
    if (wp > ends).any():
        raise EncodingError("corrupt rANS payload: stream consumed past its words")
    if (wp != ends).any() or not bool((x == RANS_L).all()):
        raise EncodingError("corrupt rANS payload: stream did not fold back to L")
    return [out[:, a:b].reshape(-1) for a, b in zip(edges[:-1], edges[1:])]
