"""The interpolation predictor's output, pinned bit for bit.

Each case is encoded and decoded, and blake2b digests of the codes, the
escape mask, the literals, the encoder's reconstruction and the decoded
array must equal the recorded ones.  The golden blob rows cover one
48x48 field; these cover ranks 1-4, dimensions of 1 and non-powers of
two up to 40, both orders, bounds from 1e-4 to 1 (escapes included),
and a field with NaN, inf and 1e9 spikes.  Print fresh digests with
``PYTHONPATH=src python tests/test_interpolation_pinned.py``.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Tuple

import numpy as np
import pytest

from repro.compression.predictors.interpolation import InterpolationPredictor
from repro.errors import CompressionError

#: ``(shape, order, bound)``; the last two rows are the spiky field.
CASES: List[Tuple[Tuple[int, ...], str, float]] = [
    ((1,), "cubic", 1e-2),
    ((2,), "linear", 1e-4),
    ((7,), "cubic", 1.0),
    ((33,), "cubic", 1e-3),
    ((40,), "linear", 1e-2),
    ((1, 40), "cubic", 1e-3),
    ((5, 3), "linear", 1.0),
    ((17, 32), "cubic", 1e-4),
    ((40, 23), "linear", 1e-3),
    ((1, 1, 1), "cubic", 1e-2),
    ((3, 40, 2), "cubic", 1e-2),
    ((9, 10, 11), "linear", 1e-3),
    ((32, 32, 32), "cubic", 1e-3),
    ((16, 16, 16), "linear", 1e-4),
    ((2, 3, 5, 7), "cubic", 1e-2),
    ((1, 8, 1, 9), "linear", 1e-3),
    ((6, 6, 6, 6), "cubic", 1e-4),
    ((12, 1, 13, 4), "cubic", 1.0),
]
SPIKY: List[Tuple[Tuple[int, ...], str, float]] = [
    ((24, 19), "cubic", 1e-3),
    ((24, 19), "linear", 1e-3),
]

#: Recorded with the gather-index pass schedule the slice views replaced.
EXPECTED: Dict[str, List[str]] = {
    '1/cubic/0.01': ['e4a6a0577479b2b4', 'e4a6a0577479b2b4', 'e4a6a0577479b2b4', '346e905f24b11bec', '346e905f24b11bec'],
    '2/linear/0.0001': ['6e1aa036c1a0cf6c', '94f6d9cdd1ea8248', 'e4a6a0577479b2b4', '57184914d6b0d572', '57184914d6b0d572'],
    '7/cubic/1': ['a03df9cc24d804bf', '3346a0d3f9b3a626', 'e4a6a0577479b2b4', '1dc7b25ca0a7bd59', '1dc7b25ca0a7bd59'],
    '33/cubic/0.001': ['00e30a35476c409f', 'c50d124a8aaf41a1', 'e4a6a0577479b2b4', '9473699f59cce097', '9473699f59cce097'],
    '40/linear/0.01': ['6529e10562a2fe4f', 'f6bff0c9ca648fc1', 'e4a6a0577479b2b4', '5fbb8c7618080352', '5fbb8c7618080352'],
    '1x40/cubic/0.001': ['a834bb1923ed15ca', 'f6bff0c9ca648fc1', 'e4a6a0577479b2b4', 'a18e29ae8d0d29d6', 'a18e29ae8d0d29d6'],
    '5x3/linear/1': ['7d989682983bf935', 'fb6ac6210a26d0a3', 'e4a6a0577479b2b4', 'f34f5617a0bd195e', 'f34f5617a0bd195e'],
    '17x32/cubic/0.0001': ['567201c51275fc2a', '03dd029d035bce55', '8a5c3cc50fe068fc', '91c69a9366ccc8d9', '91c69a9366ccc8d9'],
    '40x23/linear/0.001': ['4e2f3043d7eb35f9', 'e241154b24ceae06', 'e4a6a0577479b2b4', '85fbb67002e40072', '85fbb67002e40072'],
    '1x1x1/cubic/0.01': ['e4a6a0577479b2b4', 'e4a6a0577479b2b4', 'e4a6a0577479b2b4', 'b2ce11cf65640cdc', 'b2ce11cf65640cdc'],
    '3x40x2/cubic/0.01': ['24737a8cbad0f06c', '83ea144298376967', 'e4a6a0577479b2b4', '4b96075842f19d16', '4b96075842f19d16'],
    '9x10x11/linear/0.001': ['024bc4ca6e76cc56', 'c0d272f8013cd531', 'e4a6a0577479b2b4', '09224e31fac824c4', '09224e31fac824c4'],
    '32x32x32/cubic/0.001': ['d06df729126a8f89', '33c568b20cf89a18', 'c4be85d18c86e2e1', '9960a58721b96c2b', '9960a58721b96c2b'],
    '16x16x16/linear/0.0001': ['796d020d056f33a4', '2aefc2989b651345', '124afc64bc3fd1eb', 'ab7f7a9adf583a7d', 'ab7f7a9adf583a7d'],
    '2x3x5x7/cubic/0.01': ['8a4abb4f179817b9', '03151db6c44f538c', 'e4a6a0577479b2b4', 'ce316463c9834d83', 'ce316463c9834d83'],
    '1x8x1x9/linear/0.001': ['d6f71c03d1474dd4', '64a0b05f0a9703b9', 'e4a6a0577479b2b4', 'a3ba1907aaebfe41', 'a3ba1907aaebfe41'],
    '6x6x6x6/cubic/0.0001': ['2befbcfce9d09f1c', '852f657c5b7de81a', 'c43a0bd9f63fdaad', '090deb7f45b0a9fb', '090deb7f45b0a9fb'],
    '12x1x13x4/cubic/1': ['0f12d9b552da7b5f', 'abc84c90d5c472e1', 'e4a6a0577479b2b4', '7aa1354ef2831e98', '7aa1354ef2831e98'],
    'spiky/24x19/cubic/0.001': ['2eed93e98eb62a20', 'b707870436fa2493', '9b7de84b6f38e7f4', 'aa8f9a8f36127d22', 'aa8f9a8f36127d22'],
    'spiky/24x19/linear/0.001': ['8f8c1e1e2a761954', 'ddbea4a45fa06855', '3fe354b195afa95a', '591d2a2b6e8fa0db', '591d2a2b6e8fa0db'],
}


def _case_id(case: Tuple[Tuple[int, ...], str, float]) -> str:
    shape, order, bound = case
    return f"{'x'.join(map(str, shape))}/{order}/{bound:g}"


def _field(shape: Tuple[int, ...], spiky: bool) -> np.ndarray:
    """A random walk with sparse noise: at 1e-4 some residuals overflow
    the bin radius, so the escape path is pinned too."""
    rng = np.random.default_rng(sum(shape) * 31 + len(shape))
    data = rng.normal(0.0, 1.0, shape)
    for axis in range(len(shape)):
        data = np.cumsum(data, axis=axis)
    data = data + rng.normal(0.0, 8.0, shape) * (rng.random(shape) < 0.05)
    if spiky:
        flat = data.reshape(-1)
        flat[[3, 40, 41, 200, 333]] = [np.nan, np.inf, -np.inf, 1e9, -1e9]
    return data


def _digest(array: np.ndarray) -> str:
    return hashlib.blake2b(np.ascontiguousarray(array).tobytes(), digest_size=8).hexdigest()


def digests(case: Tuple[Tuple[int, ...], str, float], spiky: bool) -> List[str]:
    """Digests of codes, mask, literals, reconstruction and decoded output."""
    shape, order, bound = case
    data = _field(shape, spiky)
    predictor = InterpolationPredictor(order=order)
    with np.errstate(all="ignore"):
        out = predictor.encode(data, bound)
        decoded = predictor.decode(
            out.codes, out.unpredictable_mask, out.literals, out.aux, out.meta, shape, bound
        )
    return [
        _digest(np.asarray(a))
        for a in (out.codes, out.unpredictable_mask, out.literals, out.reconstruction, decoded)
    ]


@pytest.mark.parametrize(
    "case,spiky",
    [(case, False) for case in CASES] + [(case, True) for case in SPIKY],
    ids=[_case_id(c) for c in CASES] + [f"spiky/{_case_id(c)}" for c in SPIKY],
)
def test_encode_and_decode_are_pinned(case, spiky):
    key = ("spiky/" if spiky else "") + _case_id(case)
    assert digests(case, spiky) == EXPECTED[key]


def test_surplus_literals_or_codes_are_rejected():
    """Literals beyond the stream's escapes, or codes beyond its passes,
    are corrupt input, not padding."""
    shape = (16, 16, 16)
    predictor = InterpolationPredictor()
    out = predictor.encode(_field(shape, False), 1e-4)
    assert out.unpredictable_mask.any()

    def decode(codes, mask, literals):
        return predictor.decode(codes, mask, literals, out.aux, out.meta, shape, 1e-4)

    surplus = np.concatenate([out.literals, [1.0, 2.0, 3.0]])
    with pytest.raises(CompressionError, match="literal count"):
        decode(out.codes, out.unpredictable_mask, surplus)
    with pytest.raises(CompressionError, match="literal count"):
        decode(out.codes, out.unpredictable_mask, out.literals[:-1])
    with pytest.raises(CompressionError, match="consumed"):
        decode(np.append(out.codes, 0), np.append(out.unpredictable_mask, False), out.literals)


if __name__ == "__main__":
    for case in CASES:
        print(f"    {_case_id(case)!r}: {digests(case, False)},")
    for case in SPIKY:
        print(f"    {'spiky/' + _case_id(case)!r}: {digests(case, True)},")
