"""Huffman decoding: one lookup table, two ways to find where codes start.

:class:`LutDecoder` maps every ``max_len``-bit window to the symbol whose
code prefixes it and that code's length.  Where each code starts depends
on the length of the one before it — a serial chain — and the two walks
differ in how they break it:

* **Lockstep lanes** (:meth:`LutDecoder._decode_lanes`) need to be told.
  A stream written with a *sync index* records the bit distance between
  the starts of symbols ``K, 2K, 3K, ...``; every sync point of every
  stream that shares the codebook is a lane, and each of ``K`` iterations
  gathers one window per lane, looks up symbol and length, and advances:
  8 array calls per iteration over all lanes, whatever the bits per
  symbol.  A stream short enough to be one lane rides along unindexed.
  Every lane must end exactly where the next begins, so a corrupt payload
  or index is caught at the next sync point.
* **Pointer jumping** (:meth:`LutDecoder.decode`) needs nothing but the
  payload: per segment it computes where a code starting at *every bit
  position* would end, squares that map so one hop skips 16 symbols, and
  walks only every 16th start in Python — ~14 array passes per bit
  position.  It decodes streams without an index (older blobs) and
  batches too small to fill the lanes.

:meth:`LutDecoder.decode_streams` selects between them from what is in
the input, never from an option.  :func:`decode_bitloop` is the seed
per-bit decoder, kept as the reference the tests and throughput gates
compare against and for legacy codebooks too long for a table.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Sequence

import numpy as np

from ...errors import EncodingError

__all__ = ["HuffmanStream", "LutDecoder", "decode_bitloop"]

#: Widest LUT the decoder will materialise (bits).  Legacy codebooks with
#: longer (unlimited) codes fall back to the per-bit reference decoder.
_LUT_MAX_BITS = 20

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

#: Symbols decoded per lockstep call: bounds the ``(iterations, lanes)``
#: output tile (8 MiB) and the word array under it, so transient memory
#: does not grow with the file.
_LOCKSTEP_SYMBOLS = 1 << 20

#: Fewest payload bytes per lockstep iteration for the lanes to run.
#: Lockstep costs ~1.4 ms per 256 iterations plus ~3 us per lane; pointer
#: jumping 0.08-0.14 us per payload byte, more at fewer bits per symbol.
#: Pointer jumping / lockstep time for n streams of 32^3 symbols at
#: K = 256 (128 lanes each; payload bytes per iteration in brackets):
#:
#:   bits/symbol   n=1          n=2          n=4          n=18
#:   1.4           1.33 (22)    0.81 (45)    1.25 (90)    2.71 (403)
#:   2.7           0.75 (43)    1.34 (87)    2.02 (174)   3.96 (781)
#:   4.7           1.08 (74)    1.89 (149)   2.83 (298)   3.83 (1341)
#:   7.0           1.49 (112)   2.39 (224)   3.84 (448)   5.15 (2013)
#:
#: From 128 bytes per iteration up every reading is >= 1.8x; below it
#: they scatter around 1 (0.75-1.5x), so the simpler walk keeps those.
_LOCKSTEP_MIN_BYTES = 128


class HuffmanStream(NamedTuple):
    """One packed symbol stream and, when the writer stored it, its sync index.

    ``sync[i]`` is the bit distance from the start of symbol ``i * every``
    to the start of symbol ``(i + 1) * every``.
    """

    payload: bytes
    count: int
    sync: Optional[np.ndarray] = None
    every: int = 0


def _words(data: np.ndarray, first: int, count: int) -> np.ndarray:
    """Big-endian 32-bit words at ``count`` byte offsets of ``data`` from ``first``.

    Bytes past the end of ``data`` read as zero.  Four strided copies of
    the aligned words at byte phases 0-3 replace assembling every word
    from its bytes.
    """
    buf = np.zeros(count + 7, dtype=np.uint8)
    chunk = data[first : first + buf.size]
    buf[: chunk.size] = chunk
    words = np.empty(count, dtype=np.uint32)
    for phase in range(4):
        lane = words[phase::4]
        lane[...] = np.frombuffer(buf, dtype=">u4", offset=phase, count=lane.size)
    return words


class LutDecoder:
    """Flat-table canonical Huffman decoder over a codebook (see module docstring)."""

    def __init__(self, book) -> None:
        self.max_len = book.max_length()
        if not 0 < self.max_len <= _LUT_MAX_BITS:
            raise EncodingError(f"code lengths up to {self.max_len} bits exceed the LUT budget")
        # In canonical order each code owns the next 2**(max_len - length)
        # windows.  The windows no code prefixes (Kraft sum < 1) get step 0:
        # decoding one means the stream is corrupt.
        order = np.lexsort((book.symbols, book.lengths))
        runs = np.append(np.left_shift(1, self.max_len - book.lengths[order]), 0)
        runs[-1] = (1 << self.max_len) - runs.sum()
        self._complete = bool(runs[-1] == 0)
        self.symbols = np.repeat(np.append(book.symbols[order], 0), runs)
        self.step = np.repeat(np.append(book.lengths[order], 0).astype(np.uint8), runs)
        self._step_wide = self.step.astype(np.intp)  # adds to positions uncast

    # ------------------------------------------------------------------ #
    # Pointer jumping
    # ------------------------------------------------------------------ #
    def _windows(
        self, data: np.ndarray, first: int, nbytes: int, windows: np.ndarray
    ) -> np.ndarray:
        """Fill ``windows`` from ``nbytes`` bytes of ``data`` starting at ``first``.

        Row ``r`` receives the ``max_len``-bit window at bit ``r`` of
        every byte: the big-endian 32-bit word at each byte offset (zero
        padded past the end of the stream) is shifted once per bit
        phase, so every pass runs over a long contiguous row.
        """
        words = _words(data, first, nbytes)
        for phase in range(8):
            np.right_shift(words, 32 - self.max_len - phase, out=windows[phase])
        windows &= (1 << self.max_len) - 1
        return windows

    def decode(self, payload: bytes, count: int) -> np.ndarray:
        """Decode ``count`` symbols from ``payload`` by pointer jumping.

        For every bit position of a segment it computes where a code
        starting there would end (``jump[0][p] = p + length``), squares
        that map ``_JUMP_LEVELS`` times with one gather each
        (``jump[k] = jump[k-1][jump[k-1]]`` skips ``2**k`` symbols),
        walks only every ``2**_JUMP_LEVELS``-th code start in Python, and
        fills the starts in between back in with one interleaving gather
        per level.  Positions past the segment map to themselves, so a
        chain that leaves the segment parks on its exit position, which
        seeds the next segment.
        """
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

    # ------------------------------------------------------------------ #
    # Lockstep lanes
    # ------------------------------------------------------------------ #
    def decode_streams(self, streams: Sequence[HuffmanStream]) -> List[np.ndarray]:
        """Decode every stream (all coded with this book), batching what it can.

        A stream whose lanes are short enough — it carries a sync index,
        or is at most one lane long — can run in lockstep with the
        others; the rest (long streams written without an index) pointer
        jump.  Lockstep pays per iteration and pointer jumping per payload
        bit, so the batch runs in lockstep only when it brings at least
        :data:`_LOCKSTEP_MIN_BYTES` of payload per iteration.
        """
        # A lane of n symbols advances at most n * max_len bits: the uint16
        # the writer stores sync distances in bounds a lane's length, and
        # with it the iterations and the read-ahead past the payload.
        longest = 0xFFFF // self.max_len
        lengths = [s.count if s.sync is None else s.every for s in streams]
        for stream, length in zip(streams, lengths):
            if stream.sync is not None and not 0 < length <= longest:
                raise EncodingError(f"Huffman sync interval {length} out of range")
        laned = [i for i, n in enumerate(lengths) if 0 < n <= longest]
        iterations = max((lengths[i] for i in laned), default=0)
        if sum(len(streams[i].payload) for i in laned) < _LOCKSTEP_MIN_BYTES * iterations:
            laned = []
        outs = dict(zip(laned, self._decode_lanes([streams[i] for i in laned], iterations)))
        return [
            outs[i] if i in outs else self.decode(stream.payload, stream.count)
            for i, stream in enumerate(streams)
        ]

    def _decode_lanes(
        self, streams: Sequence[HuffmanStream], iterations: int
    ) -> List[np.ndarray]:
        """Decode ``streams`` with every sync point of every stream as a lane.

        The payloads are laid end to end, so each lane must stop exactly
        where the next one starts — the next sync point, or the next
        stream's first bit — except that a stream's last lane may stop
        short of its final byte's end.  Nothing in the index is trusted
        beyond that check.
        """
        if not streams:
            return []
        everies = [s.count if s.sync is None else s.every for s in streams]
        gaps, first_lane = [], [0]
        for stream, every in zip(streams, everies):
            lanes = -(-stream.count // every)
            sync = np.zeros(0, dtype=np.intp) if stream.sync is None else stream.sync
            if sync.size != lanes - 1:
                raise EncodingError(
                    f"Huffman sync index has {sync.size} entries, expected {lanes - 1}"
                )
            room = 8 * len(stream.payload) - int(sync.sum())  # for the last lane
            if room <= 0:
                raise EncodingError("Huffman sync point lies outside its payload")
            gaps += [sync, [room]]
            first_lane.append(first_lane[-1] + lanes)
        edges = np.concatenate([[0]] + gaps).cumsum(dtype=np.intp)
        starts, stops = edges[:-1], edges[1:]
        last = np.array(first_lane[1:]) - 1  # each stream's last lane
        counts = np.repeat(everies, np.diff(first_lane))
        counts[last] = [s.count - (s.count - 1) // n * n for s, n in zip(streams, everies)]
        slack = np.zeros(starts.size, dtype=np.intp)
        slack[last] = 7

        data = np.concatenate([np.frombuffer(s.payload, dtype=np.uint8) for s in streams])
        outs = [np.empty(stream.count, dtype=np.int64) for stream in streams]
        per_call = max(1, _LOCKSTEP_SYMBOLS // iterations)
        tile = np.empty((iterations, min(per_call, starts.size)), dtype=np.int64)
        member = 0  # the stream the tile's first undelivered lane belongs to
        for lo in range(0, starts.size, per_call):
            hi = min(lo + per_call, starts.size)
            ends = self._lockstep(data, starts[lo:hi], counts[lo:hi], tile[:, : hi - lo])
            missed = (ends > stops[lo:hi]) | (ends + slack[lo:hi] < stops[lo:hi])
            if missed.any():
                raise EncodingError("Huffman lane did not end on its sync point")
            while member < len(streams) and first_lane[member] < hi:
                # This stream's lanes inside the tile are its columns [a, b);
                # all but a short last one go out as one transposed block.
                a = max(first_lane[member], lo)
                b = min(first_lane[member + 1], hi)
                every = everies[member]
                done = (a - first_lane[member]) * every
                full = b - a - (counts[b - 1] < every)
                out = outs[member]
                out[done : done + full * every].reshape(full, every)[...] = tile[
                    :every, a - lo : a - lo + full
                ].T
                if full < b - a:
                    out[done + full * every :] = tile[: counts[b - 1], b - 1 - lo]
                if first_lane[member + 1] > hi:
                    break  # continues in the next tile
                member += 1
        return outs

    def _lockstep(
        self, data: np.ndarray, starts: np.ndarray, counts: np.ndarray, tile: np.ndarray
    ) -> np.ndarray:
        """Fill the ``(iterations, lanes)`` ``tile``, one row of symbols per step.

        Returns where each lane stood after its own ``counts`` symbols.  A
        lane past its count keeps decoding whatever follows — at most
        ``iterations * max_len`` bits beyond a start that lies inside
        ``data``, which the zero padding of the word array covers, so
        every gather is in range by construction (``mode="wrap"`` only
        lets ``take`` write into ``out`` unbuffered).
        """
        iterations, lanes = tile.shape
        first = int(starts[0]) >> 3
        reach = ((int(starts[-1]) + iterations * self.max_len) >> 3) + 1 - first
        words = _words(data, first, reach)
        pos = starts - 8 * first
        index = np.empty(lanes, dtype=np.intp)
        phase = np.empty(lanes, dtype=np.uint32)
        word = np.empty(lanes, dtype=np.uint32)
        advance = np.empty(lanes, dtype=np.intp)
        drop = np.uint32(32 - self.max_len)
        # Lanes shorter than the rest (a stream's last) report where they
        # stood after their own count, not after the final iteration.
        early: Dict[int, List[int]] = {}
        for lane in np.flatnonzero(counts < iterations):
            early.setdefault(int(counts[lane]), []).append(int(lane))
        stood = []
        for step in range(iterations):
            if step in early:
                stood.append((early[step], pos[early[step]]))
            np.right_shift(pos, 3, out=index)
            words.take(index, out=word, mode="wrap")
            np.bitwise_and(pos, 7, out=phase, casting="unsafe")
            # uint32 arithmetic drops the bits before the window ...
            np.left_shift(word, phase, out=word)
            # ... and the shift back leaves exactly max_len of them.
            np.right_shift(word, drop, out=index, casting="unsafe")
            self.symbols.take(index, out=tile[step], mode="wrap")
            self._step_wide.take(index, out=advance, mode="wrap")
            if not self._complete and not advance.all():
                if not advance[counts > step].all():
                    raise EncodingError("invalid Huffman code encountered during decode")
            np.add(pos, advance, out=pos)
        for short, where in stood:
            pos[short] = where
        return pos + 8 * first


def decode_bitloop(payload: bytes, book, count: int) -> np.ndarray:
    """Reference bit-at-a-time decoder (the seed implementation)."""
    if book.symbols.size == 1:
        return np.full(count, book.symbols[0], dtype=np.int64)
    # A (length, code) -> symbol map for canonical decoding.
    decode_map = dict(zip(zip(book.lengths.tolist(), book.codes.tolist()), book.symbols.tolist()))
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
