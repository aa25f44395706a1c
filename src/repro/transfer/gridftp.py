"""GridFTP-style transfer engine: concurrency, parallelism, pipelining.

Given a list of file sizes and a WAN link, the engine computes how long
the transfer takes (and therefore the effective speed).  The model
follows how GridFTP actually behaves:

* **concurrency** — number of files in flight at once.  Files are
  assigned to channels with a longest-processing-time greedy schedule;
  too few files cannot use all channels (this is why the Miranda
  grouped-transfer row of Table VIII does not improve).
* **parallelism** — number of TCP streams per file; a single channel can
  only reach ``link.stream_bandwidth(parallelism)``.
* **pipelining** — command pipelining reduces the per-file handling
  overhead, which dominates when there are many small files (Table II).
* the aggregate of all channels never exceeds the link bandwidth or the
  endpoints' storage bandwidth.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Optional, Sequence

from ..errors import ConfigurationError
from .network import WANLink

__all__ = ["GridFTPSettings", "TransferEstimate", "GridFTPEngine", "lpt_makespan"]


def lpt_makespan(times: Sequence[float], workers: int) -> float:
    """Makespan of the longest-processing-time greedy schedule: longest
    job first, each onto the earliest-free of ``workers``."""
    if not times:
        return 0.0
    heap = [0.0] * min(max(1, workers), len(times))
    for cost in sorted(times, reverse=True):
        heapq.heapreplace(heap, heap[0] + cost)
    return max(heap)


@dataclass(frozen=True)
class GridFTPSettings:
    """Tunable GridFTP transfer settings (Globus endpoint configuration)."""

    concurrency: int = 8
    parallelism: int = 4
    pipelining: int = 20

    def __post_init__(self) -> None:
        if self.concurrency < 1:
            raise ConfigurationError("concurrency must be >= 1")
        if self.parallelism < 1:
            raise ConfigurationError("parallelism must be >= 1")
        if self.pipelining < 1:
            raise ConfigurationError("pipelining must be >= 1")


@dataclass
class TransferEstimate:
    """Outcome of the transfer-time model for one batch of files."""

    duration_s: float
    total_bytes: int
    file_count: int
    effective_speed_bps: float
    per_file_overhead_s: float

    @property
    def effective_speed_mbps(self) -> float:
        """Effective speed in MB/s (decimal megabytes, as the paper reports)."""
        return self.effective_speed_bps / 1e6


class GridFTPEngine:
    """Compute transfer durations for batches of files over a WAN link."""

    def __init__(self, settings: Optional[GridFTPSettings] = None) -> None:
        self.settings = settings or GridFTPSettings()

    def channel_bandwidth_bps(
        self,
        link: WANLink,
        active_channels: int,
        storage_read_bps: Optional[float] = None,
        storage_write_bps: Optional[float] = None,
    ) -> float:
        """Bandwidth one file channel achieves with ``active_channels`` busy.

        The per-channel ceiling comes from TCP stream parallelism; the
        aggregate of all channels never exceeds the link or the endpoints'
        storage bandwidth, so each channel gets a fair share of that cap.
        """
        channels = max(1, active_channels)
        per_channel_cap = link.stream_bandwidth(self.settings.parallelism)
        aggregate_cap = link.bandwidth_bps
        if storage_read_bps:
            aggregate_cap = min(aggregate_cap, storage_read_bps)
        if storage_write_bps:
            aggregate_cap = min(aggregate_cap, storage_write_bps)
        return min(per_channel_cap, aggregate_cap / channels)

    def per_chunk_overhead_s(self, link: WANLink) -> float:
        """Handling overhead each file (or streamed chunk) pays on ``link``.

        Command pipelining amortises the per-item handling cost exactly as
        it does for whole files, so streamed chunks are modelled with the
        same formula.
        """
        overhead = link.per_file_overhead_s / min(self.settings.pipelining, 8)
        return overhead + link.rtt_s / max(self.settings.pipelining, 1)

    def estimate(
        self,
        file_sizes: Sequence[int],
        link: WANLink,
        storage_read_bps: Optional[float] = None,
        storage_write_bps: Optional[float] = None,
    ) -> TransferEstimate:
        """Estimate the duration of transferring ``file_sizes`` over ``link``."""
        sizes = [int(s) for s in file_sizes if s >= 0]
        if not sizes:
            return TransferEstimate(
                duration_s=0.0,
                total_bytes=0,
                file_count=0,
                effective_speed_bps=0.0,
                per_file_overhead_s=0.0,
            )
        settings = self.settings
        channels = max(1, min(settings.concurrency, len(sizes)))
        channel_bandwidth = self.channel_bandwidth_bps(
            link,
            channels,
            storage_read_bps=storage_read_bps,
            storage_write_bps=storage_write_bps,
        )
        per_file_overhead = self.per_chunk_overhead_s(link)

        makespan = lpt_makespan(
            [size / channel_bandwidth + per_file_overhead for size in sizes], channels)
        # Session setup: control-channel establishment costs a few RTTs.
        makespan += 3.0 * link.rtt_s
        total_bytes = sum(sizes)
        return TransferEstimate(
            duration_s=float(makespan),
            total_bytes=total_bytes,
            file_count=len(sizes),
            effective_speed_bps=total_bytes / makespan if makespan > 0 else float("inf"),
            per_file_overhead_s=per_file_overhead,
        )
