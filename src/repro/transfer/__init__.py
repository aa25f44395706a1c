"""Simulated Globus-style wide-area transfer substrate.

Real Globus endpoints and a WAN are unavailable offline, so this package
models the pieces of the transfer path whose behaviour the paper
analyses: endpoints with data-transfer nodes and storage, a WAN link
with finite bandwidth and per-file handling overhead, and a GridFTP-like
engine with concurrency / parallelism / pipelining settings.  Transfers
return simulated durations rather than sleeping, so terabyte-scale
experiments complete instantly while preserving the timing structure.
"""

from __future__ import annotations

from .filesystem import SimulatedFileSystem, FileEntry
from .endpoint import GlobusEndpoint
from .network import WANLink, NetworkTopology
from .gridftp import GridFTPSettings, GridFTPEngine, TransferEstimate
from .service import (
    StreamChunk, TransferRequest, TransferService, TransferStream, TransferTask,
)
from .testbed import Testbed, build_testbed

__all__ = [
    "SimulatedFileSystem", "FileEntry", "GlobusEndpoint", "WANLink", "NetworkTopology",
    "GridFTPSettings", "GridFTPEngine", "TransferEstimate", "TransferService", "TransferRequest",
    "TransferTask", "TransferStream", "StreamChunk", "Testbed", "build_testbed",
]
