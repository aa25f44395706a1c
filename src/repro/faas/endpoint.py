"""A FuncX execution endpoint attached to an HPC site.

Executing a function really runs the Python callable in-process (so
compression work is genuinely performed), while the *simulated* time
charged to the workflow consists of the batch-scheduler queue wait, the
container start-up cost and the execution time the caller models for
the call: the work stands for a much larger machine than the one running
it, so this host's wall time is never charged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional

from ..errors import FaaSError
from .batch_scheduler import BatchScheduler
from .container import ContainerPool

__all__ = ["FaaSExecution", "FaaSEndpoint"]


@dataclass
class FaaSExecution:
    """Outcome of one function execution on an endpoint."""

    value: Any
    queue_wait_s: float
    startup_s: float
    execution_s: float
    nodes: int
    endpoint: str

    @property
    def total_s(self) -> float:
        """Total simulated time from submission to completion."""
        return self.queue_wait_s + self.startup_s + self.execution_s


@dataclass
class FaaSEndpoint:
    """A user-deployed FuncX endpoint on one HPC system."""

    name: str
    scheduler: BatchScheduler
    cores_per_node: int = 128
    containers: ContainerPool = field(default_factory=ContainerPool)
    metadata: Dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.cores_per_node < 1:
            raise FaaSError(f"endpoint {self.name!r} needs at least one core per node")

    def execute(
        self,
        func: Callable,
        duration_s: float,
        args: tuple = (),
        kwargs: Optional[Dict[str, Any]] = None,
        nodes: int = 1,
        container: str = "default",
    ) -> FaaSExecution:
        """Run ``func`` on this endpoint, charging ``duration_s`` of execution.

        The callable really runs for its side effects and return value;
        its simulated execution time is ``duration_s``.  The call holds
        nothing afterwards: its cost is the returned execution.
        """
        queue_wait = self.scheduler.queue_wait(nodes)
        startup = self.containers.startup_cost(container)
        value = func(*args, **(kwargs or {}))
        return FaaSExecution(
            value=value,
            queue_wait_s=queue_wait,
            startup_s=startup,
            execution_s=float(duration_s),
            nodes=nodes,
            endpoint=self.name,
        )
