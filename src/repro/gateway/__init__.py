"""The Ocelot HTTP gateway: REST job control + live event streaming.

``repro.gateway`` puts a network face on the job service so clients
reach it over HTTP instead of in-process Python:

* **REST job control** — ``POST /v1/jobs`` submits a JSON
  :class:`~repro.service.spec.TransferSpec` (dataset as a generation
  recipe), ``GET /v1/jobs[?tenant=]`` lists, ``GET /v1/jobs/{id}``
  inspects, ``GET /v1/jobs/{id}/wait`` blocks, and
  ``POST /v1/jobs/{id}/cancel`` stops a job mid-phase;
* **plan groups** — ``POST /v1/plan-groups`` validates *every* spec of
  a batch before admitting *any*, then fans the group out concurrently
  through the scheduler (``GET /v1/plan-groups/{id}`` tracks it);
* **live streaming** — ``GET /v1/jobs/{id}/events`` is a server-sent-
  event stream of the job's :class:`~repro.service.events.JobEvent`
  feed with ``Last-Event-ID`` resume;
* **operations** — ``GET /healthz`` and a JSON ``GET /metricsz``
  (queue depths, per-tenant in-flight, jobs/sec, bus stats).

Everything is stdlib (``http.server`` + threads); the
:class:`~repro.gateway.driver.GatewayDriver` serialises the
multi-threaded front end onto the cooperative single-threaded
scheduler.  Each job's own feed is the one event buffer and the
:class:`~repro.gateway.bus.EventBus` the one wake-up signal: SSE
streams, ``/wait`` and the idle stepper park on its counter and read
the feed when it moves, so no subscriber keeps memory of its own.
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
