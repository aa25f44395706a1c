"""Dict-based Huffman model: the reference the array implementation must equal.

These are the per-symbol Python versions of the code-length construction,
the length limiter and the canonical code assignment that the codec used
before its model became arrays (``repro.compression.encoders.huffman``).
Every codebook, and so every stored blob, was built by them;
``tests/test_huffman_model.py`` asserts the array versions give the same
lengths and codes.  :func:`histogram` turns a ``{symbol: count}`` mapping
into the ``(symbols, counts)`` arrays the codec takes.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Mapping

import numpy as np

from repro.compression.encoders.huffman import MAX_CODE_LENGTH, Histogram


def histogram(frequencies: Mapping[int, int]) -> Histogram:
    """``frequencies`` as a :class:`Histogram`: symbols ascending, counts aligned."""
    symbols = np.array(sorted(frequencies), dtype=np.int64)
    counts = np.array([frequencies[int(s)] for s in symbols], dtype=np.int64)
    return Histogram(symbols, counts)


def as_dict(symbols: np.ndarray, values: np.ndarray) -> Dict[int, int]:
    """Aligned arrays back to ``{symbol: value}``."""
    return dict(zip(np.asarray(symbols).tolist(), np.asarray(values).tolist()))


def huffman_code_lengths(frequencies: Dict[int, int]) -> Dict[int, int]:
    """Unlimited Huffman code length of each symbol (two queues, ties as a heap broke them).

    Leaves sorted by (frequency, symbol) in one queue, merged nodes in a
    second; a merged node is taken first only when strictly cheaper than
    the next leaf.  A single-symbol alphabet gets a 1-bit code.
    """
    symbols = [s for s, f in frequencies.items() if f > 0]
    if not symbols:
        return {}
    if len(symbols) == 1:
        return {symbols[0]: 1}
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

    Lengths over the cap are clamped, the Kraft inequality is repaired by
    lengthening the least frequent symbols round-robin, and leftover
    slack is spent shortening the most frequent ones.
    """
    lengths = huffman_code_lengths(frequencies)
    if not lengths or len(lengths) == 1:
        return lengths
    min_feasible = int(np.ceil(np.log2(len(lengths))))
    cap = max(int(max_length), min_feasible)
    if max(lengths.values()) <= cap:
        return lengths
    lengths = {sym: min(length, cap) for sym, length in lengths.items()}
    budget = 1 << cap
    kraft = sum(1 << (cap - length) for length in lengths.values())
    if kraft > budget:
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


def canonical_codes(lengths: Dict[int, int]) -> Dict[int, int]:
    """Canonical codes: ordered by (length, symbol), each the last one plus one, shifted."""
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
