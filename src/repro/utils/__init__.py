"""Shared utilities: statistics, sampling, clocks, sizes and seeds."""
