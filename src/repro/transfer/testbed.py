"""The three-site testbed used throughout the paper's evaluation.

The paper measures transfers among Purdue Anvil, NERSC Cori and Argonne
Bebop.  :func:`build_testbed` creates simulated endpoints for the three
sites and WAN links whose bandwidths and per-file overheads are
calibrated so the *no-compression* effective speeds match the paper's
Table VIII baseline column (≈3.6 GB/s Anvil→Cori, ≈0.9 GB/s
Anvil→Bebop, ≈1.1 GB/s Bebop→Cori) and so that the file-size/throughput
relationship reproduces Table II.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..utils.clock import SimulationClock
from .endpoint import GlobusEndpoint
from .network import NetworkTopology, WANLink
from .service import TransferService

__all__ = ["Testbed", "build_testbed"]

#: Per-file handling overhead (seconds, before pipelining amortisation)
#: calibrated against Table II of the paper.
DEFAULT_PER_FILE_OVERHEAD_S = 0.2


@dataclass
class Testbed:
    """A complete simulated testbed: endpoints, network, transfer service."""

    service: TransferService
    clock: SimulationClock = field(default_factory=SimulationClock)

    def endpoint(self, name: str) -> GlobusEndpoint:
        """Look up an endpoint by name."""
        return self.service.endpoint(name)

    def reset_clock(self, clear_staged: bool = True) -> None:
        """Reset the shared simulation clock to zero.

        ``clear_staged`` additionally wipes every endpoint's simulated
        filesystem (staged datasets, compressed artefacts, decompressed
        reconstructions), so repeated runs — e.g. the per-mode loop of
        ``Ocelot.compare_modes`` — start from a truly identical testbed
        instead of inheriting the previous run's files.
        """
        self.clock.reset()
        if clear_staged:
            for name in self.service.endpoints():
                self.service.endpoint(name).filesystem.remove_prefix("/")


def build_testbed() -> Testbed:
    """Create the Anvil / Cori / Bebop testbed with calibrated WAN links."""
    clock = SimulationClock()
    topology = NetworkTopology()
    # Bandwidths chosen so baseline (no compression) effective speeds match
    # the paper's Table VIII measurements for large-file transfers.
    topology.add_link(
        WANLink(
            source="anvil",
            destination="cori",
            bandwidth_bps=3.9e9,
            rtt_s=0.045,
            per_file_overhead_s=DEFAULT_PER_FILE_OVERHEAD_S,
            per_stream_bandwidth_bps=1.0e9,
        )
    )
    topology.add_link(
        WANLink(
            source="anvil",
            destination="bebop",
            bandwidth_bps=0.95e9,
            rtt_s=0.028,
            per_file_overhead_s=DEFAULT_PER_FILE_OVERHEAD_S,
            per_stream_bandwidth_bps=0.30e9,
        )
    )
    topology.add_link(
        WANLink(
            source="bebop",
            destination="cori",
            bandwidth_bps=1.20e9,
            rtt_s=0.052,
            per_file_overhead_s=DEFAULT_PER_FILE_OVERHEAD_S,
            per_stream_bandwidth_bps=0.35e9,
        )
    )
    service = TransferService(topology=topology, clock=clock)
    endpoints = {
        "anvil": GlobusEndpoint(
            name="anvil",
            display_name="Purdue Anvil",
            region="Indiana, USA",
            dtn_count=8,
            storage_read_bps=20e9,
            storage_write_bps=16e9,
        ),
        "cori": GlobusEndpoint(
            name="cori",
            display_name="NERSC Cori",
            region="California, USA",
            dtn_count=8,
            storage_read_bps=18e9,
            storage_write_bps=14e9,
        ),
        "bebop": GlobusEndpoint(
            name="bebop",
            display_name="Argonne Bebop",
            region="Illinois, USA",
            dtn_count=4,
            storage_read_bps=10e9,
            storage_write_bps=8e9,
        ),
    }
    for endpoint in endpoints.values():
        service.register_endpoint(endpoint)
    return Testbed(service=service, clock=clock)
