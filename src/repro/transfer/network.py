"""WAN model: links between endpoints with bandwidth and per-file overhead.

The behaviour the paper relies on (Table II, Table VIII) is that
*effective* transfer speed depends strongly on file count and size: every
file pays a handling cost (control-channel commands, storage metadata
operations) in addition to its bytes, so many small files waste most of
the link.  The link model captures exactly that: ``bandwidth_bps`` for
bytes in flight, ``per_file_overhead_s`` per file (reduced by GridFTP
pipelining), and ``rtt_s`` for control-channel latency.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional, Tuple

from ..errors import ConfigurationError, TransferError

__all__ = ["WANLink", "NetworkTopology"]


@dataclass(frozen=True)
class WANLink:
    """A directed wide-area link between two endpoints."""

    source: str
    destination: str
    bandwidth_bps: float
    rtt_s: float = 0.05
    per_file_overhead_s: float = 0.025
    per_stream_bandwidth_bps: Optional[float] = None

    def __post_init__(self) -> None:
        if self.bandwidth_bps <= 0:
            raise ConfigurationError("link bandwidth must be positive")
        if self.rtt_s < 0 or self.per_file_overhead_s < 0:
            raise ConfigurationError("link latencies must be non-negative")
        if self.per_stream_bandwidth_bps is not None and self.per_stream_bandwidth_bps <= 0:
            raise ConfigurationError("per-stream bandwidth must be positive")

    def stream_bandwidth(self, parallelism: int) -> float:
        """Achievable bandwidth of a single file channel using ``parallelism`` streams.

        A single TCP stream rarely fills a fat WAN pipe; GridFTP uses
        multiple streams per file (parallelism) to get closer to line rate.
        """
        per_stream = self.per_stream_bandwidth_bps or (self.bandwidth_bps / 4.0)
        return min(self.bandwidth_bps, per_stream * max(1, parallelism))


class NetworkTopology:
    """Directory of WAN links keyed by (source, destination) endpoint names."""

    def __init__(self) -> None:
        self._links: Dict[Tuple[str, str], WANLink] = {}

    def add_link(self, link: WANLink) -> None:
        """Register a link and, unless already registered, its mirror image."""
        self._links[(link.source, link.destination)] = link
        reverse = replace(link, source=link.destination, destination=link.source)
        self._links.setdefault((reverse.source, reverse.destination), reverse)

    def link(self, source: str, destination: str) -> WANLink:
        """Look up the link between two endpoints."""
        try:
            return self._links[(source, destination)]
        except KeyError:
            raise TransferError(
                f"no WAN link registered between {source!r} and {destination!r}"
            ) from None

    def has_link(self, source: str, destination: str) -> bool:
        """Whether a link exists between two endpoints."""
        return (source, destination) in self._links
