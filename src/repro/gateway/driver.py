"""Thread-safe driver around :class:`~repro.service.api.OcelotService`.

The :class:`~repro.service.scheduler.JobScheduler` is cooperative: one
caller advances jobs one phase per ``step()``.  The
:class:`GatewayDriver` bridges it to everything else with **one lock**
around every touch of the service, so callers on other threads never
race it; **one loop**, :meth:`GatewayDriver.run`, the only stepper, one
phase per turn under the lock, then the server's socket I/O on the same
thread (:mod:`~repro.gateway.server`) or, run without a server, an idle
park on the bus; and **one feed, one signal**: each job's append-only
feed is the only event buffer, and the :class:`~repro.gateway.bus.EventBus`
on ``on_event`` counts what jobs emit and wakes whoever parks.  A reader
reads the counter, then its job's status or feed, so delivery is
exactly-once and in ``seq`` order and nothing scans the retained jobs: a
step costs O(log live jobs), a submit O(live jobs), a cancel and a wake
O(1).  A plan group validates *every* spec before submitting *any*.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from ..service import JobHandle, OcelotService, TransferSpec
from ..service.events import JobEvent
from .bus import EventBus

__all__ = ["GatewayDriver", "PlanGroup", "UnknownJobError", "UnknownGroupError"]

#: Longest an idle turn of the loop parks; a submit or a close from
#: another thread wakes it at once through the bus.
_IDLE_WAIT_S = 0.02


class UnknownJobError(KeyError):
    """Looked up a job id the service has never seen (HTTP 404)."""


class UnknownGroupError(KeyError):
    """Looked up a plan-group id the gateway has never seen (HTTP 404)."""


@dataclass
class PlanGroup:
    """One batch of jobs submitted atomically by ``POST /v1/plan-groups``."""

    group_id: str
    label: str
    job_ids: List[str] = field(default_factory=list)
    submitted_at: float = 0.0

    def as_dict(self, statuses: Dict[str, str]) -> Dict[str, object]:
        """JSON record of the group given its jobs' current statuses."""
        counts = dict(Counter(statuses.get(job_id, "unknown") for job_id in self.job_ids))
        completed, total = counts.get("completed", 0), len(self.job_ids)
        if sum(counts.get(kind, 0) for kind in ("completed", "failed", "cancelled")) < total:
            status = "running"
        else:
            status = ("completed" if completed == total
                      else "partial_failure" if completed else "failed")
        return {"group_id": self.group_id, "label": self.label, "status": status,
                "submitted_at": self.submitted_at, "jobs": list(self.job_ids),
                "total": total, "status_counts": counts}


class GatewayDriver:
    """Serialise the gateway loop and in-process callers onto the job service."""

    def __init__(self, service: OcelotService) -> None:
        self.service = service
        self.bus = EventBus()
        self._lock = threading.RLock()
        self._paused = False
        self._groups: Dict[str, PlanGroup] = {}
        self._group_counter = itertools.count(1)
        self._started_wall = time.monotonic()
        self._thread: Optional[threading.Thread] = None
        service.scheduler.on_event = self.bus.publish

    def start(self, target: Optional[Callable[[], None]] = None) -> "GatewayDriver":
        """Run ``target`` (else :meth:`run`) on the one daemon thread (idempotent)."""
        if self._thread is None or not self._thread.is_alive():
            self._thread = threading.Thread(
                target=target or self.run, name="ocelot-gateway", daemon=True)
            self._thread.start()
        return self

    def stop(self) -> None:
        """Close the bus (ending the loop after one more turn), join it, detach."""
        self.bus.close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        scheduler = self.service.scheduler
        if scheduler.on_event == self.bus.publish:
            scheduler.on_event = None

    def pause(self) -> None:
        """Suspend phase stepping (jobs keep queueing; used by tests)."""
        with self._lock:
            self._paused = True

    def resume(self) -> None:
        """Resume phase stepping at the loop's next turn."""
        with self._lock:
            self._paused = False

    def run(self, turn: Optional[Callable[[float], None]] = None) -> None:
        """Until the bus closes, step one phase, then run ``turn`` (a server's
        I/O, given how long it may block) or, idle, park on the bus."""
        while True:
            # Read the counter before stepping: a submit that lands after
            # an idle step has moved it, so the wait below returns at once.
            closed, seen = self.bus.closed, self.bus.published
            with self._lock:
                progressed = not (closed or self._paused) and self.service.scheduler.step()
            idle = 0.0 if progressed else _IDLE_WAIT_S
            if turn is not None:
                turn(idle)
            elif idle:
                self.bus.wait(seen, idle)
            if closed:
                return

    def _handle(self, job_id: str) -> JobHandle:
        if self.service.scheduler.get(job_id) is None:
            raise UnknownJobError(job_id)
        return self.service.job(job_id)

    def submit(self, spec: TransferSpec) -> Dict[str, object]:
        """Validate + enqueue one spec; returns the job's summary record."""
        with self._lock:
            return self.service.submit(spec).summary()

    def submit_group(self, specs: Sequence[TransferSpec],
                     label: str = "") -> Dict[str, object]:
        """Submit a plan group atomically: :meth:`OcelotService.submit_batch`
        validates every spec once, **before any job is submitted**, so one
        bad spec rejects the group with no partial state."""
        with self._lock:
            try:
                handles = self.service.submit_batch(specs)
            except Exception as exc:
                exc.args = (f"plan group {exc}",)
                raise
            group = PlanGroup(f"pg-{next(self._group_counter):04d}", label,
                              [handle.job_id for handle in handles],
                              self.service.testbed.clock.now)
            self._groups[group.group_id] = group
            return group.as_dict(self._statuses(group))

    def cancel(self, job_id: str) -> Dict[str, object]:
        """Cancel one job; the record says whether this call stopped it."""
        with self._lock:
            handle = self._handle(job_id)
            cancelled = handle.cancel()
            return {**handle.summary(), "cancelled": cancelled}

    def _statuses(self, group: PlanGroup) -> Dict[str, str]:
        return {job_id: self.service.job(job_id).status.value for job_id in group.job_ids
                if self.service.scheduler.get(job_id) is not None}

    def record(self, job_id: str, full: bool = False) -> Dict[str, object]:
        """One job's JSON record (``full`` adds events + timeline)."""
        with self._lock:
            handle = self._handle(job_id)
            return handle.as_dict() if full else handle.summary()

    def records(self, tenant: Optional[str] = None) -> List[Dict[str, object]]:
        """Summary records of every retained job, in submission order."""
        with self._lock:
            return [handle.summary() for handle in self.service.jobs()
                    if tenant is None or handle.tenant == tenant]

    def events_since(self, job_id: str, since_seq: int = 0) -> List[JobEvent]:
        """A job's feed after ``since_seq`` (what the SSE stream writes)."""
        with self._lock:
            return self._handle(job_id).events(since_seq=since_seq)

    def group(self, group_id: str) -> Dict[str, object]:
        """One plan group's record with live per-job status counts."""
        with self._lock:
            plan = self._groups.get(group_id)
            if plan is None:
                raise UnknownGroupError(group_id)
            return plan.as_dict(self._statuses(plan))

    def groups(self) -> List[Dict[str, object]]:
        """All plan groups, in submission order."""
        with self._lock:
            return [plan.as_dict(self._statuses(plan))
                    for plan in self._groups.values()]

    def done(self, job_id: str) -> bool:
        """Whether a job is terminal."""
        with self._lock:
            return self._handle(job_id).status.is_terminal

    def wait(self, job_id: str, timeout: Optional[float] = None) -> bool:
        """Block (off-lock) until a job is terminal; False on timeout or
        once the driver has stopped."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            seen = self.bus.published
            if self.done(job_id):
                return True
            remaining = None if deadline is None else deadline - time.monotonic()
            if self.bus.closed or (remaining is not None and remaining <= 0):
                return False
            self.bus.wait(seen, remaining)

    def metrics(self) -> Dict[str, object]:
        """The ``/metricsz`` snapshot: queues, tenants, throughput, bus."""
        with self._lock:
            scheduler = self.service.scheduler
            handles = self.service.jobs()
            status_counts = Counter(handle.status.value for handle in handles)
            completed = status_counts.get("completed", 0)
            uptime = max(time.monotonic() - self._started_wall, 1e-9)
            makespan = scheduler.makespan_s
            return {
                "uptime_s": round(uptime, 3),
                "jobs": {"total": len(handles), **status_counts},
                "queue_depths": {
                    "active": status_counts.get("pending", 0)
                    + status_counts.get("running", 0),
                },
                "tenants": {"in_flight": scheduler.in_flight()},
                "jobs_per_sec": {
                    "wall": round(completed / uptime, 4),
                    "simulated": round(completed / makespan, 4) if makespan > 0 else 0.0,
                },
                "makespan_s": makespan,
                "clock_s": self.service.testbed.clock.now,
                "plan_groups": len(self._groups),
                "bus": self.bus.describe(),
            }
