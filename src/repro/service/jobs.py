"""Job records and the user-facing :class:`JobHandle`.

``OcelotService.submit`` returns a :class:`JobHandle` immediately; the
handle is how callers observe and steer a job that now lives inside the
multi-tenant scheduler: poll :attr:`JobHandle.status`, block on
:meth:`JobHandle.wait`, collect the :class:`~repro.core.TransferReport`
with :meth:`JobHandle.result`, stop it with :meth:`JobHandle.cancel`,
and read the structured :class:`~repro.service.events.JobEvent` feed.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Generator, List, Optional, TYPE_CHECKING

from ..errors import OrchestrationError
from .events import JobEvent

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.config import OcelotConfig
    from ..core.orchestrator import OcelotOrchestrator
    from ..core.phases import PhaseStep
    from ..core.reporting import TransferReport
    from .scheduler import JobScheduler
    from .spec import TransferSpec

__all__ = ["JobStatus", "JobHandle", "TransferJob", "PhaseSpan"]


class JobStatus(str, enum.Enum):
    """Lifecycle states of a service job."""

    PENDING = "pending"
    RUNNING = "running"
    COMPLETED = "completed"
    FAILED = "failed"
    CANCELLED = "cancelled"

    @property
    def is_terminal(self) -> bool:
        """Whether the job can no longer change state."""
        return self in (JobStatus.COMPLETED, JobStatus.FAILED, JobStatus.CANCELLED)


@dataclass
class PhaseSpan:
    """One scheduled phase on a job's timeline (with contention applied)."""

    name: str
    start_s: float
    end_s: float
    detail: Dict[str, object] = field(default_factory=dict)

    @property
    def duration_s(self) -> float:
        """Scheduled duration of the phase."""
        return max(0.0, self.end_s - self.start_s)

    def as_dict(self) -> Dict[str, object]:
        """JSON-friendly form of the span."""
        return {
            "name": self.name,
            "start_s": self.start_s,
            "end_s": self.end_s,
            "detail": dict(self.detail),
        }


@dataclass
class TransferJob:
    """Internal record of one submitted transfer (owned by the scheduler)."""

    job_id: str
    spec: "TransferSpec"
    config: "OcelotConfig"
    orchestrator: "OcelotOrchestrator"
    submitted_at: float = 0.0
    status: JobStatus = JobStatus.PENDING
    generator: Optional[Generator["PhaseStep", None, "TransferReport"]] = None
    report: Optional["TransferReport"] = None
    error: Optional[BaseException] = None
    events: List[JobEvent] = field(default_factory=list)
    timeline: List[PhaseSpan] = field(default_factory=list)
    #: The job's current position on the simulated timeline (its next
    #: phase cannot start earlier than this).
    t_local: float = 0.0
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    #: Tenant the scheduler dispatches the job under.
    tenant: str = "default"
    #: Monotonic submission sequence number (scheduler tie-breaker).
    submit_seq: int = 0
    #: The scheduler whose ``on_event`` listener hears this job's feed.
    scheduler: Optional["JobScheduler"] = field(default=None, repr=False, compare=False)

    def emit(self, kind: str, time_s: float, phase: str = "",
             detail: Optional[Dict[str, object]] = None) -> JobEvent:
        """Append one event to the job's feed and push it to the listener.

        This is the one event path: the feed assigns ``seq``, and the
        scheduler's ``on_event`` listener — looked up now, not when the
        job was created, so a gateway attached later still hears jobs
        that already exist — receives each event exactly once, in feed
        order.  Nobody has to scan feeds to find what is new.
        """
        event = JobEvent(
            time_s=time_s, job_id=self.job_id, kind=kind, phase=phase,
            detail=dict(detail or {}), seq=len(self.events) + 1,
        )
        self.events.append(event)
        listener = self.scheduler.on_event if self.scheduler is not None else None
        if listener is not None:
            listener(event)
        return event

    @property
    def makespan_s(self) -> Optional[float]:
        """Submit-to-finish span on the simulated timeline."""
        if self.finished_at is None:
            return None
        return self.finished_at - self.submitted_at

    @property
    def wait_s(self) -> Optional[float]:
        """Submit-to-first-phase wait (the scheduling delay)."""
        if self.started_at is None:
            return None
        return self.started_at - self.submitted_at


class JobHandle:
    """The caller's view of a submitted job."""

    def __init__(self, job: TransferJob, scheduler: "JobScheduler") -> None:
        self._job = job
        self._scheduler = scheduler

    # ------------------------------------------------------------------ #
    @property
    def job_id(self) -> str:
        """Stable identifier of the job."""
        return self._job.job_id

    @property
    def spec(self) -> "TransferSpec":
        """The request this job was created from."""
        return self._job.spec

    @property
    def status(self) -> JobStatus:
        """Current lifecycle state."""
        return self._job.status

    @property
    def tenant(self) -> str:
        """Tenant the job is scheduled under (fair-queueing flow)."""
        return self._job.tenant

    @property
    def wait_s(self) -> Optional[float]:
        """Submit-to-first-phase wait on the simulated timeline."""
        return self._job.wait_s

    @property
    def started_at(self) -> Optional[float]:
        """Simulated time the first phase was scheduled (None if pending)."""
        return self._job.started_at

    @property
    def finished_at(self) -> Optional[float]:
        """Simulated time the job reached a terminal state."""
        return self._job.finished_at

    @property
    def makespan_s(self) -> Optional[float]:
        """Submit-to-finish span on the simulated timeline."""
        return self._job.makespan_s

    def events(self, since_seq: int = 0) -> List[JobEvent]:
        """The job's structured event feed so far (time-ordered).

        ``since_seq`` returns only events *after* that sequence number,
        so resuming consumers (pollers, the gateway's SSE stream after a
        ``Last-Event-ID`` reconnect) never replay what they already saw.
        The feed is append-only and ``seq`` is 1-based and contiguous,
        so this is a plain slice, not a scan.
        """
        if since_seq <= 0:
            return list(self._job.events)
        return self._job.events[since_seq:]

    def timeline(self) -> List[PhaseSpan]:
        """Scheduled phase spans (with cross-job contention applied)."""
        return list(self._job.timeline)

    # ------------------------------------------------------------------ #
    def wait(self) -> JobStatus:
        """Run the scheduler until this job reaches a terminal state."""
        self._scheduler.drain_until(self._job)
        return self._job.status

    def result(self) -> "TransferReport":
        """Block until done and return the report.

        Re-raises the job's error if it failed; raises
        :class:`~repro.errors.OrchestrationError` if it was cancelled.
        """
        self.wait()
        if self._job.status is JobStatus.FAILED and self._job.error is not None:
            raise self._job.error
        if self._job.status is JobStatus.CANCELLED:
            raise OrchestrationError(f"job {self.job_id} was cancelled")
        if self._job.report is None:
            raise OrchestrationError(
                f"job {self.job_id} finished with status {self._job.status.value} "
                "but produced no report"
            )
        return self._job.report

    def cancel(self) -> bool:
        """Cancel the job; returns False if it already finished.

        A pending job never runs; a job suspended mid-phase has its phase
        machine closed and runs no further phase.
        """
        return self._scheduler.cancel(self._job)

    # ------------------------------------------------------------------ #
    def summary(self) -> Dict[str, object]:
        """JSON-friendly record of the job without its feed and timeline."""
        record: Dict[str, object] = {
            "job_id": self.job_id,
            "status": self.status.value,
            "submitted_at": self._job.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "makespan_s": self.makespan_s,
            "wait_s": self.wait_s,
            **self._job.spec.describe(),
            # The resolved tenant (the spec's field may be None and fall
            # back to the service configuration).
            "tenant": self.tenant,
        }
        if self._job.report is not None:
            record["report"] = self._job.report.as_dict()
        if self._job.error is not None:
            record["error"] = str(self._job.error)
        return record

    def as_dict(self) -> Dict[str, object]:
        """The full record (a ``record`` line of the CLI's job log):
        :meth:`summary` plus the event feed and the timeline."""
        record = self.summary()
        record["events"] = [event.as_dict() for event in self._job.events]
        record["timeline"] = [span.as_dict() for span in self._job.timeline]
        return record

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"JobHandle({self.job_id!r}, status={self.status.value})"
