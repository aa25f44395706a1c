"""The FuncX sites a transfer computes on, and the table that names them.

Ocelot runs compression next to the data through FuncX.  What the
transfer model needs from each site is its partition size and its
compute-node waiting time, which is a site's :class:`BatchScheduler`;
:class:`SiteTable` looks one up by site name.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..errors import FaaSError
from ..utils.clock import SimulationClock
from ..utils.rng import derive_seed
from .batch_scheduler import BatchScheduler, NodeWaitModel

__all__ = ["SiteTable", "build_faas_service"]


class SiteTable:
    """Site name -> that site's batch scheduler."""

    def __init__(self, schedulers: Dict[str, BatchScheduler]) -> None:
        self._schedulers = dict(schedulers)

    def scheduler(self, name: str) -> BatchScheduler:
        """The batch scheduler of site ``name``."""
        try:
            return self._schedulers[name]
        except KeyError as exc:
            raise FaaSError(f"unknown FaaS site {name!r}; known: {self.names()}") from exc

    def names(self) -> List[str]:
        """Names of the sites, sorted."""
        return sorted(self._schedulers)


def build_faas_service(
    clock: Optional[SimulationClock] = None,
    wait_models: Optional[Dict[str, NodeWaitModel]] = None,
    nodes: Optional[Dict[str, int]] = None,
    seed: int = 0,
) -> SiteTable:
    """Build the site table of the paper's testbed.

    Anvil schedules compression immediately (the paper reports negligible
    waiting there); Bebop and Cori use a bimodal waiting model (usually
    0-30 s, occasionally much longer).  ``clock`` is accepted and unused:
    sites sample waits and keep no time; the keyword stays only because
    ``bench/workloads.py`` still passes it.
    """
    default_wait = {
        "anvil": NodeWaitModel(kind="immediate"),
        "bebop": NodeWaitModel(kind="bimodal", scale_s=30.0, heavy_tail_p=0.1,
                               heavy_tail_scale_s=600.0),
        "cori": NodeWaitModel(kind="bimodal", scale_s=30.0, heavy_tail_p=0.1,
                              heavy_tail_scale_s=600.0),
    }
    default_nodes = {"anvil": 16, "bebop": 8, "cori": 8}
    wait_models = {**default_wait, **(wait_models or {})}
    nodes = {**default_nodes, **(nodes or {})}
    return SiteTable({
        name: BatchScheduler(
            total_nodes=nodes[name],
            wait_model=wait_models.get(name, NodeWaitModel()),
            # Not ``hash(name)``: str hashes are salted per process, which
            # made every sampled queue wait differ from run to run.
            seed=derive_seed(seed, name),
        )
        for name in sorted(nodes)
    })
