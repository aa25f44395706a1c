"""Entropy and lossless encoders used by the compression pipelines."""
