"""The Ocelot HTTP gateway: REST job control + live event streaming.

Submit (``POST /v1/jobs``, a JSON :class:`~repro.service.spec.TransferSpec`
whose dataset is a generation recipe), list, inspect, wait on and cancel
jobs; submit all-or-nothing plan groups; stream a job's feed as
server-sent events with ``Last-Event-ID`` resume; ``/healthz`` and
``/metricsz``.  All stdlib: one thread runs a ``selectors`` loop that
serves every socket and steps the scheduler (:mod:`.server`,
:mod:`.driver`), and each job's own feed is the one event buffer,
followed through the :class:`~repro.gateway.bus.EventBus` counter.
Start one with :func:`create_gateway` or ``ocelot serve --host --port``.
"""

from __future__ import annotations

from .app import GatewayAPI, spec_from_payload
from .bus import EventBus
from .driver import GatewayDriver, PlanGroup, UnknownGroupError, UnknownJobError
from .server import Gateway, create_gateway

__all__ = [
    "EventBus", "Gateway", "GatewayAPI", "GatewayDriver", "PlanGroup",
    "UnknownGroupError", "UnknownJobError", "create_gateway", "spec_from_payload",
]
