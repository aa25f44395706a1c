"""Batch-scheduler model: a partition size and a queue-wait sampler.

The paper observes that compression jobs submitted through a batch
scheduler may wait anywhere between seconds and hours for compute nodes
(Section VIII-D), motivating the sentinel optimisation.  A request here
samples that wait from a configurable distribution so experiments can
sweep the waiting regime.  Nothing here tracks which nodes are busy:
the job scheduler's per-endpoint node pools are where nodes are
occupied, on the simulated timeline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..errors import SchedulingError
from ..utils.rng import rng_from_seed

__all__ = ["NodeWaitModel", "BatchScheduler"]


@dataclass(frozen=True)
class NodeWaitModel:
    """Distribution of queue waiting time.

    ``kind`` may be:

    * ``immediate`` — nodes are always free (Anvil in the paper);
    * ``constant`` — a fixed wait of ``scale_s`` seconds;
    * ``uniform`` — uniform in ``[0, scale_s]``;
    * ``exponential`` — exponential with mean ``scale_s``;
    * ``bimodal`` — mostly short waits with probability ``1 - heavy_tail_p``,
      and long waits around ``heavy_tail_scale_s`` otherwise (matching the
      paper's "0-30 s usually, sometimes minutes or hours" description of
      Bebop/Cori).
    """

    kind: str = "immediate"
    scale_s: float = 0.0
    heavy_tail_p: float = 0.1
    heavy_tail_scale_s: float = 600.0

    def sample(self, rng) -> float:
        """Draw one waiting time in seconds."""
        if self.kind == "immediate":
            return 0.0
        if self.kind == "constant":
            return float(self.scale_s)
        if self.kind == "uniform":
            return float(rng.uniform(0.0, self.scale_s))
        if self.kind == "exponential":
            return float(rng.exponential(self.scale_s))
        if self.kind == "bimodal":
            if rng.uniform() < self.heavy_tail_p:
                return float(rng.exponential(self.heavy_tail_scale_s))
            return float(rng.uniform(0.0, self.scale_s))
        raise SchedulingError(f"unknown node wait model kind {self.kind!r}")


class BatchScheduler:
    """One site's partition size and its queue-wait sampler."""

    def __init__(
        self,
        total_nodes: int = 16,
        wait_model: Optional[NodeWaitModel] = None,
        seed: int = 0,
    ) -> None:
        if total_nodes < 1:
            raise SchedulingError("scheduler needs at least one node")
        self.total_nodes = int(total_nodes)
        self.wait_model = wait_model or NodeWaitModel()
        self._rng = rng_from_seed(seed)

    def queue_wait(self, nodes: int) -> float:
        """Seconds one request for ``nodes`` nodes waits in the queue.

        Requests for no nodes or for more than the partition raise.
        Every valid request takes one draw from the site's RNG, whatever
        else is running.
        """
        if nodes < 1:
            raise SchedulingError("must request at least one node")
        if nodes > self.total_nodes:
            raise SchedulingError(
                f"requested {nodes} nodes but the partition only has {self.total_nodes}"
            )
        return self.wait_model.sample(self._rng)
