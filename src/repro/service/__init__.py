"""The Ocelot service layer: jobs instead of blocking calls.

``repro.service`` turns the orchestration stack into a multi-tenant
service: declarative, validated :class:`TransferSpec` requests go in,
:class:`JobHandle` objects come out immediately, and a
:class:`JobScheduler` multiplexes the resulting jobs — split into
resumable phase steps — over one shared testbed with an event-driven
core: start-time fair queueing with equal shares across tenants,
contention for compute nodes and WAN links, and an
optional durable :class:`JobStore` write-ahead log that lets
:meth:`OcelotService.recover` resume a crashed service.
"""

from __future__ import annotations

from .api import OcelotService, RecoveryResult
from .events import JobEvent
from .jobs import JobHandle, JobStatus, PhaseSpan, TransferJob
from .scheduler import JobScheduler, UnitPool
from .spec import TransferSpec
from .store import JobStore

__all__ = [
    "OcelotService", "RecoveryResult", "TransferSpec", "JobHandle", "JobStatus",
    "JobEvent", "JobScheduler", "JobStore", "PhaseSpan", "TransferJob", "UnitPool",
]
