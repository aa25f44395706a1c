"""The federated FaaS service: registration plus remote dispatch.

``FuncXService`` is the hub Ocelot talks to: functions are registered
once, then invoked on any registered endpoint.  Each invocation returns
a :class:`FaaSTask` carrying the function result and the simulated
timing breakdown (queue wait, container start-up, execution).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from ..errors import FaaSError
from ..utils.clock import SimulationClock
from ..utils.rng import derive_seed
from .batch_scheduler import BatchScheduler, NodeWaitModel
from .endpoint import FaaSEndpoint, FaaSExecution
from .function import FunctionRegistry

__all__ = ["FaaSTask", "FuncXService"]


@dataclass
class FaaSTask:
    """One completed FaaS invocation."""

    task_id: str
    function_id: str
    endpoint: str
    execution: FaaSExecution
    submitted_at: float
    completed_at: float

    @property
    def result(self) -> Any:
        """The function's return value."""
        return self.execution.value

    @property
    def duration_s(self) -> float:
        """Total simulated duration including queue wait."""
        return self.execution.total_s


class FuncXService:
    """Federated FaaS hub: register functions, dispatch to endpoints."""

    def __init__(self, clock: Optional[SimulationClock] = None) -> None:
        self.registry = FunctionRegistry()
        self.clock = clock or SimulationClock()
        self._endpoints: Dict[str, FaaSEndpoint] = {}
        self._counter = itertools.count(1)

    # ------------------------------------------------------------------ #
    def register_endpoint(self, endpoint: FaaSEndpoint) -> None:
        """Attach a FuncX endpoint to the service."""
        self._endpoints[endpoint.name] = endpoint

    def endpoint(self, name: str) -> FaaSEndpoint:
        """Look up an endpoint by name."""
        try:
            return self._endpoints[name]
        except KeyError as exc:
            raise FaaSError(
                f"unknown FaaS endpoint {name!r}; registered: {sorted(self._endpoints)}"
            ) from exc

    def endpoints(self) -> List[str]:
        """Names of registered endpoints."""
        return sorted(self._endpoints)

    def register_function(self, func, name: Optional[str] = None, container: str = "default") -> str:
        """Register a Python callable; returns the function id."""
        return self.registry.register(func, name=name, container=container)

    # ------------------------------------------------------------------ #
    def run(
        self,
        endpoint_name: str,
        function_id: str,
        duration_s: float,
        args: tuple = (),
        kwargs: Optional[Dict[str, Any]] = None,
        nodes: int = 1,
    ) -> FaaSTask:
        """Invoke a registered function on an endpoint.

        ``duration_s`` is the call's modelled execution time.  The task
        is submitted at the clock's current time and completes its total
        duration (queue wait + start-up + execution) later; the clock
        itself does not move, and the service keeps no record of the call.
        """
        spec = self.registry.get(function_id)
        endpoint = self.endpoint(endpoint_name)
        submitted = self.clock.now
        execution = endpoint.execute(
            spec.callable,
            duration_s,
            args=args,
            kwargs=kwargs,
            nodes=nodes,
            container=spec.container,
        )
        return FaaSTask(
            task_id=f"faas-{next(self._counter):06d}",
            function_id=function_id,
            endpoint=endpoint_name,
            execution=execution,
            submitted_at=submitted,
            completed_at=submitted + execution.total_s,
        )


def build_faas_service(
    clock: Optional[SimulationClock] = None,
    wait_models: Optional[Dict[str, NodeWaitModel]] = None,
    nodes: Optional[Dict[str, int]] = None,
    cores_per_node: Optional[Dict[str, int]] = None,
    seed: int = 0,
) -> FuncXService:
    """Build a FuncX service with endpoints matching the paper's testbed.

    Anvil schedules compression immediately (the paper reports negligible
    waiting there); Bebop and Cori use a bimodal waiting model (usually
    0-30 s, occasionally much longer).
    """
    service = FuncXService(clock=clock)
    default_wait = {
        "anvil": NodeWaitModel(kind="immediate"),
        "bebop": NodeWaitModel(kind="bimodal", scale_s=30.0, heavy_tail_p=0.1,
                               heavy_tail_scale_s=600.0),
        "cori": NodeWaitModel(kind="bimodal", scale_s=30.0, heavy_tail_p=0.1,
                              heavy_tail_scale_s=600.0),
    }
    default_nodes = {"anvil": 16, "bebop": 8, "cori": 8}
    default_cores = {"anvil": 128, "bebop": 36, "cori": 32}
    wait_models = {**default_wait, **(wait_models or {})}
    nodes = {**default_nodes, **(nodes or {})}
    cores_per_node = {**default_cores, **(cores_per_node or {})}
    for name in sorted(nodes):
        scheduler = BatchScheduler(
            total_nodes=nodes[name],
            wait_model=wait_models.get(name, NodeWaitModel()),
            # Not ``hash(name)``: str hashes are salted per process, which
            # made every sampled queue wait differ from run to run.
            seed=derive_seed(seed, name),
        )
        service.register_endpoint(
            FaaSEndpoint(name=name, scheduler=scheduler, cores_per_node=cores_per_node[name])
        )
    return service
