"""The sentinel: transfer raw data while compression nodes are queued.

When the batch scheduler cannot start the compression job immediately,
waiting idly can make the compressed transfer *slower* than a plain
transfer.  The sentinel monitors the queue and, during the waiting time,
transfers files raw (uncompressed), recording which files no longer need
compression; once nodes are granted it stops and hands the remaining
files to the parallel compression job (Fig. 10).  In the worst case —
nodes never arrive — everything is transferred raw, so compression can
only help, never hurt.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

from ..transfer.gridftp import GridFTPEngine, GridFTPSettings
from ..transfer.network import WANLink

__all__ = ["SentinelDecision", "Sentinel"]


@dataclass
class SentinelDecision:
    """Outcome of the sentinel's planning for one waiting period."""

    wait_s: float
    raw_paths: List[str] = field(default_factory=list)
    compress_paths: List[str] = field(default_factory=list)
    raw_bytes: int = 0
    raw_transfer_s: float = 0.0

    @property
    def raw_count(self) -> int:
        """Number of files sent raw during the wait."""
        return len(self.raw_paths)


class Sentinel:
    """Plan which files to transfer raw during the node-waiting window."""

    def __init__(self, settings: GridFTPSettings | None = None) -> None:
        self.engine = GridFTPEngine(settings)

    def plan(
        self,
        files: Sequence[Tuple[str, int]],
        wait_s: float,
        link: WANLink,
        threshold_s: float = 5.0,
    ) -> SentinelDecision:
        """Split files into a raw-transfer prefix and a to-compress remainder.

        Files are considered in their on-disk order (the paper writes the
        finished filenames to a meta file in completion order); the raw
        prefix is the largest set whose estimated transfer time fits into
        the waiting window.  Short waits (below ``threshold_s``) are not
        worth starting a raw transfer for.
        """
        decision = SentinelDecision(wait_s=float(wait_s))
        names = [name for name, _ in files]
        if wait_s <= threshold_s or not files:
            decision.compress_paths = list(names)
            return decision
        # Incrementally add files while the estimated raw-transfer time of
        # the prefix still fits inside the waiting window.  For similar-size
        # files the engine's greedy schedule is well approximated by
        # aggregate-bandwidth streaming plus a per-channel share of the
        # per-file handling overhead.
        channels = max(1, min(self.engine.settings.concurrency, len(files)))
        aggregate_bw = self.engine.channel_bandwidth_bps(link, channels) * channels
        per_file_overhead = self.engine.per_chunk_overhead_s(link)
        chosen = 0
        elapsed = 3.0 * link.rtt_s
        last_duration = 0.0
        for _, size in files:
            cost = size / aggregate_bw + per_file_overhead / channels
            if elapsed + cost > wait_s:
                break
            elapsed += cost
            last_duration = elapsed
            chosen += 1
        decision.raw_paths = names[:chosen]
        decision.compress_paths = names[chosen:]
        decision.raw_bytes = sum(size for _, size in files[:chosen])
        decision.raw_transfer_s = last_duration
        return decision
