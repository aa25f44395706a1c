"""Globus-style endpoints: storage plus data-transfer nodes.

An endpoint bundles a simulated filesystem with the characteristics that
matter for transfer performance: the number of data-transfer nodes
(DTNs), the per-DTN storage I/O bandwidth (which caps effective transfer
speed and models the I/O contention seen during parallel decompression),
and the compute partition used for compression jobs (a site's batch
scheduler in ``repro.faas``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from ..errors import ConfigurationError
from .filesystem import SimulatedFileSystem

__all__ = ["GlobusEndpoint"]


@dataclass
class GlobusEndpoint:
    """One Globus collection / endpoint in the simulated testbed."""

    name: str
    display_name: str = ""
    region: str = ""
    dtn_count: int = 4
    storage_read_bps: float = 12e9
    storage_write_bps: float = 10e9
    filesystem: SimulatedFileSystem = field(default_factory=SimulatedFileSystem)
    metadata: Dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("endpoint name must be non-empty")
        if self.dtn_count < 1:
            raise ConfigurationError(f"endpoint {self.name!r} needs at least one DTN")
        if self.storage_read_bps <= 0 or self.storage_write_bps <= 0:
            raise ConfigurationError(
                f"endpoint {self.name!r} storage bandwidth must be positive"
            )
        if not self.display_name:
            self.display_name = self.name

    # ------------------------------------------------------------------ #
    def describe(self) -> Dict[str, object]:
        """Summary of the endpoint configuration and stored data."""
        return {
            "name": self.name,
            "display_name": self.display_name,
            "region": self.region,
            "dtn_count": self.dtn_count,
            "files": self.filesystem.file_count(),
            "total_bytes": self.filesystem.total_bytes(),
        }
