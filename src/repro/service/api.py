"""``OcelotService``: submit transfer jobs, get handles, observe them.

This is Capability 3 of the paper grown into a service surface: many
users submit :class:`~repro.service.spec.TransferSpec` requests against
shared endpoints, schedulers and WAN links; the service validates each
request at the boundary, hands back a
:class:`~repro.service.jobs.JobHandle` immediately, and multiplexes the
resulting jobs over one testbed through the
:class:`~repro.service.scheduler.JobScheduler` — start-time
fair queueing with equal shares across tenants.

With a :class:`~repro.service.store.JobStore` attached, every
submission and terminal transition is appended to a JSONL write-ahead
log, job numbering continues past the ids the log already holds, and
:meth:`OcelotService.recover` resumes a crashed service: finished jobs
keep their recorded terminal states (no duplicated billing) and
unfinished ones are re-queued from their persisted specs.

The blocking calls (``Ocelot.transfer_dataset`` /
``Ocelot.compare_modes``) are thin submit-and-wait wrappers over this
service: every transfer runs through the one scheduler, the simulation
clock's only owner, so a job's report is the same ``==`` whether it ran
alone, in a batch or over HTTP.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Union

from ..core.config import OcelotConfig
from ..core.orchestrator import OcelotOrchestrator
from ..errors import OrchestrationError
from ..faas.service import SiteTable, build_faas_service
from ..transfer.testbed import Testbed, build_testbed
from .jobs import JobHandle, TransferJob
from .scheduler import JobScheduler
from .spec import TransferSpec
from .store import JobStore

__all__ = ["OcelotService", "RecoveryResult"]

_TERMINAL_STATUSES = ("completed", "failed", "cancelled")
#: Job ids read ``job-0001``, ``job-0002``, ...
_JOB_ID = re.compile(r"^job-(\d+)$")


@dataclass
class RecoveryResult:
    """Outcome of :meth:`OcelotService.recover`.

    Attributes:
        resumed: handles of jobs re-queued from the write-ahead log
            (they had not reached a terminal state before the crash).
        finished: persisted records of jobs that were already terminal —
            recovery never re-runs (or re-bills) these.
        unrecoverable: persisted records of unfinished jobs whose
            dataset could not be rebuilt (no generation recipe); they
            are left out of the queue rather than guessed at.
    """

    resumed: List[JobHandle] = field(default_factory=list)
    finished: List[Dict[str, object]] = field(default_factory=list)
    unrecoverable: List[Dict[str, object]] = field(default_factory=list)


class OcelotService:
    """Job-oriented front end of the Ocelot orchestration stack."""

    def __init__(
        self,
        config: Optional[OcelotConfig] = None,
        testbed: Optional[Testbed] = None,
        faas: Optional[SiteTable] = None,
        orchestrator_factory: Optional[Callable[[OcelotConfig], OcelotOrchestrator]] = None,
        store: Optional[Union[JobStore, str]] = None,
    ) -> None:
        self.config = config or OcelotConfig()
        self.testbed = testbed or build_testbed()
        self.faas = faas or build_faas_service()
        self._factory = orchestrator_factory or self._default_orchestrator
        self.scheduler = JobScheduler(self.testbed, self.faas)
        self.scheduler.on_terminal = self._on_job_terminal
        self.store: Optional[JobStore] = (
            JobStore(store) if isinstance(store, str) else store
        )
        # Never hand out a job id the log already used.
        used = [
            int(match.group(1))
            for match in map(_JOB_ID.match, self.store.replay() if self.store else ())
            if match
        ]
        self._counter = itertools.count(max(used, default=0) + 1)
        self._handles: dict[str, JobHandle] = {}

    def _default_orchestrator(self, config: OcelotConfig) -> OcelotOrchestrator:
        return OcelotOrchestrator(config=config, testbed=self.testbed, faas=self.faas)

    # ------------------------------------------------------------------ #
    # Submission
    # ------------------------------------------------------------------ #
    def submit(self, spec: TransferSpec) -> JobHandle:
        """Validate a request and enqueue it; returns its handle.

        Validation — mode, endpoints, WAN route, compressor, tenant,
        per-job config overrides — happens here, before any
        staging or clock movement, so a bad request costs nothing and
        fails with a precise error.  The job itself runs when the
        scheduler is drained (any handle's
        :meth:`~repro.service.jobs.JobHandle.wait` /
        :meth:`~repro.service.jobs.JobHandle.result`, or
        :meth:`run_pending`).
        """
        return self._enqueue(spec, self._validated(spec))

    def _validated(self, spec: TransferSpec) -> OcelotConfig:
        """``spec``'s job config; raises what :meth:`TransferSpec.validate` raises."""
        if not isinstance(spec, TransferSpec):
            raise OrchestrationError(
                f"submit() takes a TransferSpec, got {type(spec).__name__}"
            )
        return spec.validate(self.config, self.testbed)

    def _enqueue(
        self, spec: TransferSpec, job_config: OcelotConfig, job_id: Optional[str] = None
    ) -> JobHandle:
        """Enqueue a validated ``spec`` with the config its validation returned."""
        tenant = spec.resolved_tenant(job_config)
        if self.scheduler.idle and self.testbed.clock.now < self.scheduler.makespan_s:
            # The clock was rewound (e.g. between compare_modes runs):
            # start a fresh scheduling epoch instead of queueing the new
            # job behind the previous epoch's resource horizons.
            self.scheduler.reset_timeline(self.testbed.clock.now)
        orchestrator = self._factory(job_config)
        if job_id is None:
            job_id = f"job-{next(self._counter):04d}"
        # Concurrent jobs naming the same dataset would share staged and
        # compressed artefact paths on the simulated filesystems, letting
        # one tenant's writes clobber another's between phase steps (and
        # a job decode a different tenant's blobs).  Scope this job's
        # paths when its dataset name collides with a live job's.
        name = getattr(spec.dataset, "name", None)
        if any(getattr(live.spec.dataset, "name", None) == name
               for live in self.scheduler.live_jobs()):
            orchestrator.artifact_scope = f"@{job_id}"
        job = TransferJob(
            job_id=job_id,
            spec=spec,
            config=job_config,
            orchestrator=orchestrator,
            submitted_at=self.testbed.clock.now,
            tenant=tenant,
            scheduler=self.scheduler,
        )
        # Creating the generator runs nothing: staging starts only when
        # the scheduler first resumes the job.
        job.generator = orchestrator.iter_phases(
            spec.dataset, spec.source, spec.destination, mode=spec.mode
        )
        job.emit("submitted", job.submitted_at, detail=spec.describe())
        if self.store is not None:
            self.store.record_submitted(
                job_id,
                job.submitted_at,
                {**spec.describe(), "tenant": tenant},
                dataset_recipe=getattr(spec.dataset, "recipe", None),
            )
        self.scheduler.add(job)
        handle = JobHandle(job, self.scheduler)
        self._handles[job.job_id] = handle
        return handle

    def submit_batch(self, specs: Iterable[TransferSpec]) -> List[JobHandle]:
        """Submit several requests; they will interleave when drained.

        Every spec is validated, once, before any is enqueued: one bad
        spec enqueues none, and its error is prefixed ``spec #<index>:``.
        """
        specs = list(specs)
        configs = []
        for index, spec in enumerate(specs):
            try:
                configs.append(self._validated(spec))
            except Exception as exc:
                exc.args = (f"spec #{index}: {exc}",)
                raise
        return [self._enqueue(spec, config) for spec, config in zip(specs, configs)]

    # ------------------------------------------------------------------ #
    # Durability
    # ------------------------------------------------------------------ #
    def _on_job_terminal(self, job: TransferJob) -> None:
        """Scheduler callback: append the terminal record to the WAL."""
        if self.store is None:
            return
        report = job.report.as_dict() if job.report is not None else None
        self.store.record_terminal(
            job.job_id,
            job.status.value,
            job.finished_at,
            report=report,
            error=str(job.error) if job.error is not None else None,
        )

    def recover(self) -> RecoveryResult:
        """Resume a crashed service from its write-ahead job store.

        Folds the JSONL log into per-job states and splits them three
        ways: jobs already terminal keep their persisted records and are
        **not** re-run (no duplicated billing — their compute was spent
        before the crash); unfinished jobs are re-queued under their
        original job ids and tenants, rebuilding each
        dataset from its persisted generation recipe; unfinished jobs
        with no recipe are reported as unrecoverable, not guessed at.

        Returns a :class:`RecoveryResult`; drain the ``resumed`` handles
        (e.g. :meth:`run_pending`) to finish the persisted batch.
        """
        if self.store is None:
            raise OrchestrationError("recover() needs a service with a job store")
        if not self.scheduler.idle:
            raise OrchestrationError("cannot recover while jobs are in flight")
        result = RecoveryResult()
        for job_id, state in self.store.replay().items():
            if state.get("status") in _TERMINAL_STATUSES:
                result.finished.append(state)
                continue
            if not state.get("dataset_recipe"):
                result.unrecoverable.append(state)
                continue
            from ..datasets import generate_application

            dataset = generate_application(**state["dataset_recipe"])
            spec_fields = dict(state.get("spec") or {})
            spec = TransferSpec(
                dataset=dataset,
                source=spec_fields.get("source", ""),
                destination=spec_fields.get("destination", ""),
                mode=spec_fields.get("mode"),
                label=spec_fields.get("label", ""),
                tenant=spec_fields.get("tenant"),
                overrides=dict(spec_fields.get("overrides") or {}),
            )
            result.resumed.append(self._enqueue(spec, self._validated(spec), job_id=job_id))
        return result

    # ------------------------------------------------------------------ #
    # Observation
    # ------------------------------------------------------------------ #
    def jobs(self) -> List[JobHandle]:
        """Handles of every job ever submitted, in submission order."""
        return [self._handles[job.job_id] for job in self.scheduler.jobs()]

    def job(self, job_id: str) -> JobHandle:
        """Look up one job by id."""
        try:
            return self._handles[job_id]
        except KeyError as exc:
            raise OrchestrationError(
                f"unknown job {job_id!r}; known jobs: {sorted(self._handles)}"
            ) from exc

    @property
    def makespan_s(self) -> float:
        """Combined makespan of everything scheduled so far."""
        return self.scheduler.makespan_s

    # ------------------------------------------------------------------ #
    # Retention
    # ------------------------------------------------------------------ #
    def discard(self, job_id: str) -> None:
        """Forget one terminal job (its handle stays usable standalone)."""
        handle = self.job(job_id)
        if not handle.status.is_terminal:
            raise OrchestrationError(
                f"cannot discard job {job_id}: still {handle.status.value}"
            )
        self.scheduler.remove(self.scheduler_job(job_id))
        del self._handles[job_id]

    def clear_finished(self) -> int:
        """Forget every terminal job; returns how many were discarded.

        Long-lived clients submitting many jobs (sweeps, the blocking
        wrappers) call this to keep the service's memory bounded —
        datasets, event feeds and timelines of finished jobs are
        otherwise retained for inspection indefinitely.
        """
        finished = [h.job_id for h in self.jobs() if h.status.is_terminal]
        for job_id in finished:
            self.discard(job_id)
        return len(finished)

    def scheduler_job(self, job_id: str) -> TransferJob:
        """The scheduler-side record behind a handle (internal plumbing)."""
        job = self.scheduler.get(job_id)
        if job is None:
            raise OrchestrationError(f"unknown job {job_id!r}")
        return job

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def run_pending(self) -> List[JobHandle]:
        """Drain the scheduler: run every queued job to a terminal state.

        Returns the handles of all jobs (completed, failed or cancelled).
        Equivalent to waiting on any one handle of the batch, but reads
        better when the caller only wants the batch effect.
        """
        self.scheduler.drain()
        return self.jobs()
