"""Thread-safe driver around :class:`~repro.service.api.OcelotService`.

The service layer is cooperative and single-threaded by design: the
:class:`~repro.service.scheduler.JobScheduler` advances jobs one phase
per ``step()`` and expects exactly one caller.  An HTTP gateway has
the opposite shape — many request threads arriving at once — so the
:class:`GatewayDriver` owns the bridge:

* **one lock** around every touch of the service/scheduler (submission,
  cancellation, record and feed reads), so request handlers never race
  the phase machine;
* **one background thread** that drains the scheduler a single phase
  step at a time, releasing the lock between steps — status reads and
  new submissions interleave with a running batch instead of blocking
  behind it (the scheduler syncs the simulation clock itself when the
  last job in flight retires);
* **one feed, one signal**: each job's own append-only feed is the only
  event buffer, and the :class:`~repro.gateway.bus.EventBus` installed
  as the scheduler's ``on_event`` listener only counts what a job emits
  and wakes every waiter.  The idle stepper, :meth:`wait` and the SSE
  streams all park on that one counter; a woken reader takes the lock
  once to read its job's status or feed and parks again.  No reader
  holds events of its own, so delivery is exactly-once and in ``seq``
  order by construction, and nothing scans the retained jobs to find
  out what is new.  A step costs what the scheduler charges (O(log live
  jobs)), a submit O(live jobs), a cancel O(1) and a wake O(1) per
  waiter — none depends on how many finished jobs the service retains.
  HTTP handlers never run scheduler code in a request thread.

Plan groups (the batch submit endpoint) also live here: *every* spec of
a group is validated before *any* job is submitted, so a group is
all-or-nothing at the boundary and then fans out concurrently through
the ordinary scheduler interleaving.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..service import JobHandle, OcelotService, TransferSpec
from ..service.events import JobEvent
from .bus import EventBus

__all__ = ["GatewayDriver", "PlanGroup", "UnknownJobError", "UnknownGroupError"]


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
        counts: Dict[str, int] = {}
        for job_id in self.job_ids:
            status = statuses.get(job_id, "unknown")
            counts[status] = counts.get(status, 0) + 1
        terminal = ("completed", "failed", "cancelled")
        finished = sum(counts.get(status, 0) for status in terminal)
        if finished < len(self.job_ids):
            status = "running"
        elif counts.get("completed", 0) == len(self.job_ids):
            status = "completed"
        elif counts.get("completed", 0) == 0:
            status = "failed"
        else:
            status = "partial_failure"
        return {
            "group_id": self.group_id,
            "label": self.label,
            "status": status,
            "submitted_at": self.submitted_at,
            "jobs": list(self.job_ids),
            "total": len(self.job_ids),
            "status_counts": counts,
        }


class GatewayDriver:
    """Serialise a multi-threaded HTTP front end onto the job service."""

    def __init__(self, service: OcelotService, idle_poll_s: float = 0.02) -> None:
        self.service = service
        self.bus = EventBus()
        self._idle_poll_s = idle_poll_s
        self._lock = threading.RLock()
        self._paused = False
        self._groups: Dict[str, PlanGroup] = {}
        self._group_counter = itertools.count(1)
        self._started_wall = time.monotonic()
        self._thread: Optional[threading.Thread] = None
        service.scheduler.on_event = self.bus.publish

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> "GatewayDriver":
        """Launch the background scheduler thread (idempotent; a stopped
        driver stays stopped)."""
        if self._thread is None or not self._thread.is_alive():
            self._thread = threading.Thread(
                target=self._run, name="ocelot-gateway-driver", daemon=True
            )
            self._thread.start()
        return self

    def stop(self) -> None:
        """Close the bus (releasing every waiter), stop the scheduler
        thread and detach from the feed."""
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
        """Resume phase stepping at the stepper's next wake (an event or
        its idle poll)."""
        with self._lock:
            self._paused = False

    def _run(self) -> None:
        while not self.bus.closed:
            # Read the counter before stepping: a submit that lands after
            # an idle step has moved it, so the wait below returns at once.
            seen = self.bus.published
            with self._lock:
                progressed = not self._paused and self.service.scheduler.step()
            if not progressed:
                self.bus.wait(seen, self._idle_poll_s)

    def _handle(self, job_id: str) -> JobHandle:
        if self.service.scheduler.get(job_id) is None:
            raise UnknownJobError(job_id)
        return self.service.job(job_id)

    # ------------------------------------------------------------------ #
    # Submission / cancellation
    # ------------------------------------------------------------------ #
    def submit(self, spec: TransferSpec) -> Dict[str, object]:
        """Validate + enqueue one spec; returns the job's summary record."""
        with self._lock:
            return self.service.submit(spec).summary()

    def submit_group(self, specs: Sequence[TransferSpec],
                     label: str = "") -> Dict[str, object]:
        """Submit a whole plan group atomically, then fan it out.

        Every spec is validated (config overrides, mode, endpoints,
        route, compressor, dataset, tenant/priority) **before any job is
        submitted** — one bad spec rejects the group with no partial
        state.  Its jobs then interleave through the scheduler like any
        other batch.
        """
        with self._lock:
            for index, spec in enumerate(specs):
                try:
                    spec.validate(self.service.config, self.service.testbed)
                except Exception as exc:
                    exc.args = (f"plan group spec #{index}: {exc}",)
                    raise
            group = PlanGroup(
                group_id=f"pg-{next(self._group_counter):04d}",
                label=label,
                submitted_at=self.service.testbed.clock.now,
            )
            for spec in specs:
                group.job_ids.append(self.service.submit(spec).job_id)
            self._groups[group.group_id] = group
            return group.as_dict(self._statuses(group))

    def cancel(self, job_id: str) -> Dict[str, object]:
        """Cancel one job; the record says whether this call stopped it."""
        with self._lock:
            handle = self._handle(job_id)
            cancelled = handle.cancel()
            record = handle.summary()
            record["cancelled"] = cancelled
        return record

    # ------------------------------------------------------------------ #
    # Observation
    # ------------------------------------------------------------------ #
    def _statuses(self, group: PlanGroup) -> Dict[str, str]:
        return {
            job_id: self.service.job(job_id).status.value
            for job_id in group.job_ids
            if self.service.scheduler.get(job_id) is not None
        }

    def record(self, job_id: str, full: bool = False) -> Dict[str, object]:
        """One job's JSON record (``full`` adds events + timeline)."""
        with self._lock:
            handle = self._handle(job_id)
            return handle.as_dict() if full else handle.summary()

    def records(self, tenant: Optional[str] = None) -> List[Dict[str, object]]:
        """Summary records of every retained job, in submission order."""
        with self._lock:
            return [
                handle.summary()
                for handle in self.service.jobs()
                if tenant is None or handle.tenant == tenant
            ]

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

    # ------------------------------------------------------------------ #
    def wait(self, job_id: str, timeout: Optional[float] = None) -> bool:
        """Block (off-lock) until a job is terminal; False on timeout or
        once the driver has stopped."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            seen = self.bus.published
            with self._lock:
                if self._handle(job_id).status.is_terminal:
                    return True
            remaining = None if deadline is None else deadline - time.monotonic()
            if self.bus.closed or (remaining is not None and remaining <= 0):
                return False
            self.bus.wait(seen, remaining)

    # ------------------------------------------------------------------ #
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
