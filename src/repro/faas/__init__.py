"""Simulated federated Function-as-a-Service substrate (FuncX-style).

Ocelot uses FuncX to orchestrate compression and decompression on remote
endpoints without logging in to them.  This package models the pieces
that matter for transfer performance: function registration/dispatch,
per-endpoint container warm-up, and — most importantly — the batch
scheduler whose *node waiting time* motivates the paper's sentinel
optimisation.
"""

from __future__ import annotations

from .function import FunctionRegistry, FunctionSpec
from .container import ContainerPool
from .batch_scheduler import BatchScheduler, NodeWaitModel
from .endpoint import FaaSEndpoint, FaaSExecution
from .service import FuncXService, FaaSTask, build_faas_service

__all__ = [
    "build_faas_service",
    "FunctionRegistry",
    "FunctionSpec",
    "ContainerPool",
    "BatchScheduler",
    "NodeWaitModel",
    "FaaSEndpoint",
    "FaaSExecution",
    "FuncXService",
    "FaaSTask",
]
