"""Simulated FuncX sites: each one's partition size and node waiting time.

Ocelot uses FuncX to run compression and decompression next to the data
without logging in to the sites.  What transfer performance depends on
from that layer is each site's batch scheduler, whose *node waiting
time* motivates the paper's sentinel optimisation; the site table names
one scheduler per site.
"""

from __future__ import annotations

from .batch_scheduler import BatchScheduler, NodeWaitModel
from .service import SiteTable, build_faas_service

__all__ = ["build_faas_service", "BatchScheduler", "NodeWaitModel", "SiteTable"]
