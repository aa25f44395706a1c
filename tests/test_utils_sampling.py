"""Tests for repro.utils.sampling."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import FeatureExtractionError
from repro.utils.sampling import block_sample


class TestBlockSample:
    def test_blocks_are_contiguous(self):
        data = np.arange(1000)
        sample = block_sample(data, block=10, fraction=0.1)
        # Each block of 10 consecutive values should appear unbroken.
        for start in range(0, sample.size, 10):
            chunk = sample[start : start + 10]
            np.testing.assert_array_equal(np.diff(chunk), np.ones(chunk.size - 1))

    def test_fraction_controls_size(self):
        data = np.arange(100000)
        small = block_sample(data, block=50, fraction=0.01)
        large = block_sample(data, block=50, fraction=0.1)
        assert small.size < large.size

    def test_invalid_block_raises(self):
        with pytest.raises(FeatureExtractionError):
            block_sample(np.arange(10), block=0)

    def test_full_fraction_returns_everything(self):
        data = np.arange(128)
        np.testing.assert_array_equal(block_sample(data, block=8, fraction=1.0), data)


    def test_multidimensional_input_is_flattened(self):
        data = np.arange(4096).reshape(16, 16, 16)
        np.testing.assert_array_equal(block_sample(data, block=8, fraction=0.05),
                                      block_sample(data.ravel(), block=8, fraction=0.05))

    def test_sampling_is_deterministic(self):
        data = np.random.default_rng(3).normal(size=20000)
        np.testing.assert_array_equal(block_sample(data), block_sample(data))

    def test_one_percent_sampling_size(self):
        assert block_sample(np.arange(100000), block=8, fraction=0.01).size == 1000

    def test_blocks_are_spread_across_the_data(self):
        data = np.arange(100000)
        sample = block_sample(data, block=8, fraction=0.01)
        assert sample[0] == 0
        assert sample.max() > 0.9 * data.size

    def test_empty_input_returns_empty(self):
        assert block_sample(np.array([]), block=8).size == 0

    def test_input_shorter_than_a_block_is_returned_whole(self):
        data = np.arange(5)
        np.testing.assert_array_equal(block_sample(data, block=8, fraction=0.01), data)
