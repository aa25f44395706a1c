"""The multi-tenant job scheduler: interleave phase steps on one testbed.

Phases compute durations and never move the simulation clock; the
:class:`JobScheduler` is its one owner.  It drives many jobs' phase-step
generators (``OcelotOrchestrator.iter_phases``) cooperatively through an
event-driven core — a solo job is the batch of one:

* each job has a local position ``t_local`` on the shared simulated
  timeline and lives in exactly one *flow* — the ``(priority class,
  tenant)`` pair it dispatches under;
* dispatch is a three-level decision, each level O(log n): strict
  priority classes first (a ``high`` job always dispatches before a
  ``normal`` one), start-time weighted fair queueing across the tenants
  of a class second (flows carry virtual-time tags charged by phase
  duration over tenant weight, so one tenant flooding the queue cannot
  starve others), and earliest ``(t_local, submit_seq)`` within a
  tenant last — the original deterministic discipline.  With a single
  tenant and priority class the dispatch order is exactly the legacy
  earliest-position scan, so solo and homogeneous batches behave
  identically to the linear-scan scheduler they replace;
* all registries are dict/heap backed: ``step()`` and job eviction are
  O(log n) / O(1) instead of the old O(n) scans, so a thousand queued
  jobs drain in near-linear time;
* admission control parks jobs over their tenant's quota
  (:class:`~repro.service.quotas.TenantQuota`) in a FIFO admission
  queue (``JobStatus.QUEUED_ADMISSION``) and admits them as earlier
  jobs of the tenant retire;
* compute phases contend for per-endpoint node pools (sized by the
  site's batch-scheduler partition) and WAN phases contend for
  per-link channels — a phase starts at the earliest time both the job
  and its resources are free, exactly like GridFTP channel assignment
  in the transfer stream;
* the shared simulation clock is advanced once, to the combined
  makespan, when the last job in flight retires — so ``drain``,
  ``drain_until`` and the gateway driver's stepping thread share one
  sync, and an idle scheduler's clock reads its makespan.

Because compression and transfer phases of *different* jobs overlap on
the timeline, the combined makespan of N jobs is below the sum of their
serial makespans while each job's report stays identical to what a solo
run produces — scheduling policy moves timelines, never results.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from typing import Callable, Deque, Dict, Iterator, List, Optional, Tuple, TYPE_CHECKING

from ..core.phases import PhaseStep
from ..errors import AdmissionError
from .events import JobEvent
from .jobs import JobStatus, PhaseSpan, TransferJob
from .quotas import TenantQuota

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.config import OcelotConfig
    from ..faas.service import SiteTable
    from ..transfer.testbed import Testbed

__all__ = ["JobScheduler", "UnitPool"]


def node_footprint(config: "OcelotConfig") -> int:
    """A job's compute-node footprint for quota accounting."""
    return max(config.compression_nodes, config.decompression_nodes)


class UnitPool:
    """A pool of identical resource units with per-unit free times.

    Acquiring ``n`` units at time ``ready`` starts when the ``n``
    earliest-free units are all available — the same min-heap discipline
    the transfer stream uses for GridFTP channels, applied to compute
    nodes and WAN links.
    """

    def __init__(self, capacity: int) -> None:
        self.capacity = max(1, int(capacity))
        self._free: List[float] = [0.0] * self.capacity

    def earliest_start(self, units: int, ready: float) -> float:
        """Earliest time ``units`` units are simultaneously free."""
        units = max(1, min(units, self.capacity))
        return max([ready] + heapq.nsmallest(units, self._free))

    def commit(self, units: int, finish: float) -> None:
        """Occupy ``units`` units until ``finish``."""
        units = max(1, min(units, self.capacity))
        for _ in range(units):
            heapq.heappop(self._free)
        for _ in range(units):
            heapq.heappush(self._free, finish)


class _Flow:
    """One ``(priority class, tenant)`` dispatch queue with an SFQ tag.

    ``jobs`` is a min-heap of ``(t_local, submit_seq, job)`` — the
    per-tenant ready queue.  ``tag`` is the flow's virtual start time
    under start-time fair queueing: dispatching a phase of duration
    ``d`` advances it by ``d / weight``, so heavier tenants accumulate
    virtual time more slowly and are offered proportionally more
    service.  ``entry_seq`` identifies the flow's current entry in its
    class heap (stale entries are skipped lazily).
    """

    __slots__ = ("priority", "tenant", "weight", "tag", "jobs", "queued", "entry_seq")

    def __init__(self, priority: int, tenant: str, weight: float) -> None:
        self.priority = priority
        self.tenant = tenant
        self.weight = weight
        self.tag = 0.0
        self.jobs: List[Tuple[float, int, TransferJob]] = []
        self.queued = False
        self.entry_seq = -1


class JobScheduler:
    """Cooperatively schedule many transfer jobs over a shared testbed."""

    def __init__(self, testbed: "Testbed", faas: "SiteTable") -> None:
        self.testbed = testbed
        self.faas = faas
        # All registries are keyed by job_id so retention-era eviction
        # (`remove`) and terminal retirement are O(1), not list scans.
        self._jobs: Dict[str, TransferJob] = {}
        self._active: Dict[str, TransferJob] = {}
        self._flows: Dict[Tuple[int, str], _Flow] = {}
        self._class_heaps: Dict[int, List[Tuple[float, int, _Flow]]] = {}
        self._vtime: Dict[int, float] = {}
        self._quotas: Dict[str, TenantQuota] = {}
        self._admission: Dict[str, Deque[TransferJob]] = {}
        self._tenant_in_flight: Dict[str, int] = {}
        self._tenant_nodes: Dict[str, int] = {}
        self._node_pools: Dict[str, UnitPool] = {}
        self._link_pools: Dict[Tuple[str, str], UnitPool] = {}
        self._makespan_s = 0.0
        self._submit_seq = itertools.count()
        self._entry_seq = itertools.count()
        #: Called with each job as it reaches a terminal state (the
        #: service uses this to append to the durable job store).
        self.on_terminal: Optional[Callable[[TransferJob], None]] = None
        #: Called with every event any job of this scheduler emits, as
        #: it is emitted (``TransferJob.emit`` reads this hook at emit
        #: time).  The gateway driver installs its bus publisher here.
        self.on_event: Optional[Callable[[JobEvent], None]] = None

    # ------------------------------------------------------------------ #
    # Resource pools
    # ------------------------------------------------------------------ #
    def node_pool(self, endpoint: str) -> UnitPool:
        """Compute-node pool of one endpoint (sized by its partition)."""
        pool = self._node_pools.get(endpoint)
        if pool is None:
            capacity = self.faas.scheduler(endpoint).total_nodes
            pool = self._node_pools[endpoint] = UnitPool(capacity)
        return pool

    def link_pool(self, link: Tuple[str, str]) -> UnitPool:
        """WAN pool of one route; bulk transfers use the whole link."""
        pool = self._link_pools.get(link)
        if pool is None:
            pool = self._link_pools[link] = UnitPool(1)
        return pool

    # ------------------------------------------------------------------ #
    # Quotas and admission control
    # ------------------------------------------------------------------ #
    def set_quota(self, tenant: str, quota: Optional[TenantQuota]) -> None:
        """Install (or clear, with ``None``) one tenant's quota."""
        if quota is None:
            self._quotas.pop(tenant, None)
        else:
            self._quotas[tenant] = quota
        flow_weight = quota.weight if quota is not None else 1.0
        for (_, flow_tenant), flow in self._flows.items():
            if flow_tenant == tenant:
                flow.weight = flow_weight

    def quota(self, tenant: str) -> Optional[TenantQuota]:
        """The quota installed for a tenant, if any."""
        return self._quotas.get(tenant)

    def check_admissible(self, tenant: str, config: "OcelotConfig") -> None:
        """Reject requests that can never fit the tenant's quota."""
        quota = self._quotas.get(tenant)
        nodes = node_footprint(config)
        if quota is not None and quota.max_nodes is not None and nodes > quota.max_nodes:
            raise AdmissionError(
                f"tenant {tenant!r} is limited to {quota.max_nodes} compute "
                f"nodes but the job requests {nodes}; shrink the request or "
                "raise the quota"
            )

    def in_flight(self) -> Dict[str, int]:
        """Admitted, non-terminal job counts per tenant (metrics view)."""
        return {t: n for t, n in self._tenant_in_flight.items() if n > 0}

    def admission_depths(self) -> Dict[str, int]:
        """Jobs parked in each tenant's admission queue (metrics view)."""
        return {t: len(q) for t, q in self._admission.items() if q}

    def _fits_quota(self, job: TransferJob) -> bool:
        if self._quotas.get(job.tenant) is None:
            return True
        # FIFO admission: a new job never jumps over tenants-mates
        # already waiting, even if it would fit.
        return not self._admission.get(job.tenant) and self._has_room(job)

    def _has_room(self, job: TransferJob) -> bool:
        """The admission rule: the tenant's quota has room for one more
        job in flight and for the job's nodes beside its admitted jobs'."""
        quota = self._quotas.get(job.tenant)
        if quota is None:
            return True
        if quota.max_in_flight is not None and (
            self._tenant_in_flight.get(job.tenant, 0) >= quota.max_in_flight
        ):
            return False
        return quota.max_nodes is None or (
            self._tenant_nodes.get(job.tenant, 0) + node_footprint(job.config)
            <= quota.max_nodes
        )

    def _drain_admission_queue(self, tenant: str, release_time: float) -> None:
        """Admit waiting jobs of one tenant, in order, while they fit."""
        waiting = self._admission.get(tenant)
        while waiting:
            job = waiting[0]
            if job.status.is_terminal:  # cancelled while queued
                waiting.popleft()
                continue
            if not self._has_room(job):
                break
            waiting.popleft()
            job.status = JobStatus.PENDING
            self._admit(job, release_time)
            job.emit(
                "admitted",
                job.t_local,
                detail={"queued_s": max(0.0, job.t_local - job.submitted_at)},
            )
        if waiting is not None and not waiting:
            self._admission.pop(tenant, None)

    # ------------------------------------------------------------------ #
    # Queue management
    # ------------------------------------------------------------------ #
    def add(self, job: TransferJob) -> None:
        """Enqueue a job (its phase generator has not started yet).

        A job over its tenant's quota enters the admission queue in
        ``QUEUED_ADMISSION`` state instead of the ready heap; it is
        admitted automatically when earlier jobs of the tenant retire.
        """
        job.t_local = job.submitted_at
        job.submit_seq = next(self._submit_seq)
        self._jobs[job.job_id] = job
        if not self._fits_quota(job):
            job.status = JobStatus.QUEUED_ADMISSION
            self._admission.setdefault(job.tenant, deque()).append(job)
            quota = self._quotas[job.tenant]
            job.emit(
                "queued_admission",
                job.submitted_at,
                detail={
                    "in_flight": self._tenant_in_flight.get(job.tenant, 0),
                    "max_in_flight": quota.max_in_flight,
                    "tenant_nodes": self._tenant_nodes.get(job.tenant, 0),
                    "max_nodes": quota.max_nodes,
                },
            )
            return
        self._admit(job, job.submitted_at)

    def _admit(self, job: TransferJob, now: float) -> None:
        """Place an admitted job in its flow's ready heap."""
        job.t_local = max(job.t_local, now)
        job.admitted_at = job.t_local
        self._active[job.job_id] = job
        self._tenant_in_flight[job.tenant] = (
            self._tenant_in_flight.get(job.tenant, 0) + 1
        )
        self._tenant_nodes[job.tenant] = (
            self._tenant_nodes.get(job.tenant, 0) + node_footprint(job.config)
        )
        flow = self._flow_for(job)
        heapq.heappush(flow.jobs, (job.t_local, job.submit_seq, job))
        if not flow.queued:
            self._queue_flow(flow)

    def _flow_for(self, job: TransferJob) -> _Flow:
        key = (job.priority_class, job.tenant)
        flow = self._flows.get(key)
        if flow is None:
            quota = self._quotas.get(job.tenant)
            weight = quota.weight if quota is not None else 1.0
            flow = self._flows[key] = _Flow(job.priority_class, job.tenant, weight)
        return flow

    def _queue_flow(self, flow: _Flow) -> None:
        """(Re)insert a flow into its priority class's dispatch heap."""
        # Start-time fair queueing: a flow waking from idle restarts at
        # the class's current virtual time instead of catching up on
        # service it never asked for.
        flow.tag = max(flow.tag, self._vtime.get(flow.priority, 0.0))
        flow.entry_seq = next(self._entry_seq)
        heapq.heappush(
            self._class_heaps.setdefault(flow.priority, []),
            (flow.tag, flow.entry_seq, flow),
        )
        flow.queued = True

    def jobs(self) -> List[TransferJob]:
        """All currently retained jobs, in submission order."""
        return list(self._jobs.values())

    def live_jobs(self) -> Iterator[TransferJob]:
        """Jobs not yet terminal: admitted ones, then admission-queued.

        Reads the active and admission registries only, so the cost is
        the number of jobs in flight however many finished jobs the
        service still retains.
        """
        return itertools.chain(self._active.values(), *self._admission.values())

    def get(self, job_id: str) -> Optional[TransferJob]:
        """O(1) lookup of a retained job by id."""
        return self._jobs.get(job_id)

    def remove(self, job: TransferJob) -> None:
        """Forget a terminal job (long-lived services evict old records)."""
        if not job.status.is_terminal:
            raise RuntimeError(f"cannot remove job {job.job_id}: still {job.status.value}")
        self._jobs.pop(job.job_id, None)

    @property
    def makespan_s(self) -> float:
        """Latest phase finish across all jobs scheduled so far."""
        return self._makespan_s

    @property
    def idle(self) -> bool:
        """Whether every queued job has reached a terminal state."""
        return not self._active and not any(self._admission.values())

    def reset_timeline(self, origin: float = 0.0) -> None:
        """Start a fresh scheduling epoch at ``origin``.

        Used when the shared clock is rewound between experiment runs
        (e.g. ``Ocelot.compare_modes`` resetting the testbed per mode)
        while the scheduler is idle: resource pools, fair-queueing
        virtual time and the combined makespan restart from ``origin``
        instead of queueing new jobs behind the previous epoch's finish
        times.
        """
        if not self.idle:
            raise RuntimeError("cannot reset the timeline while jobs are in flight")
        self._node_pools.clear()
        self._link_pools.clear()
        self._flows.clear()
        self._class_heaps.clear()
        self._vtime.clear()
        self._makespan_s = float(origin)

    # ------------------------------------------------------------------ #
    # Dispatch
    # ------------------------------------------------------------------ #
    def _next_dispatch(self) -> Optional[Tuple[_Flow, TransferJob]]:
        """Pop the next (flow, job) to run: priority, then WFQ, then time.

        Cancelled jobs and superseded flow entries are skipped lazily,
        so cancellation never has to search a heap.
        """
        while self._class_heaps:
            priority = max(self._class_heaps)
            heap = self._class_heaps[priority]
            if not heap:
                del self._class_heaps[priority]
                continue
            tag, entry_seq, flow = heapq.heappop(heap)
            if not flow.queued or flow.entry_seq != entry_seq:
                continue  # superseded entry
            flow.queued = False
            job: Optional[TransferJob] = None
            while flow.jobs:
                _, _, candidate = heapq.heappop(flow.jobs)
                if candidate.status.is_terminal:
                    continue  # cancelled while queued
                job = candidate
                break
            if job is None:
                continue  # flow drained by cancellations
            self._vtime[priority] = max(self._vtime.get(priority, 0.0), tag)
            return flow, job
        return None

    def _requeue_flow(self, flow: _Flow) -> None:
        if flow.jobs and not flow.queued:
            self._queue_flow(flow)

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def step(self) -> bool:
        """Advance the next fair-queued job by one phase; False when idle.

        One call resumes one job's generator to its next phase boundary,
        charges the phase against the resource pools and the flow's
        virtual time, and emits the job's phase events.  Terminal
        transitions (completion, failure) also happen here.
        """
        dispatch = self._next_dispatch()
        if dispatch is None:
            return False
        flow, job = dispatch
        if job.status is JobStatus.PENDING:
            job.status = JobStatus.RUNNING
            job.started_at = job.t_local
        assert job.generator is not None
        try:
            phase = next(job.generator)
        except StopIteration as stop:
            self._complete(job, stop.value)
            self._requeue_flow(flow)
            return True
        except Exception as exc:  # noqa: BLE001 - failures belong to the job
            self._fail(job, exc)
            self._requeue_flow(flow)
            return True
        self._account(job, phase)
        # Charge the phase to the flow's virtual time; heavier tenants
        # accumulate it more slowly, which is the whole of WFQ.
        flow.tag += max(0.0, phase.duration_s) / flow.weight
        heapq.heappush(flow.jobs, (job.t_local, job.submit_seq, job))
        self._requeue_flow(flow)
        return True

    def drain(self) -> None:
        """Run every queued job to a terminal state."""
        while self.step():
            pass

    def drain_until(self, job: TransferJob) -> None:
        """Run the queue until ``job`` reaches a terminal state.

        The scheduler interleaves *all* queued jobs while getting there —
        waiting on one handle of a batch advances the whole batch, which
        is what makes ``submit(); submit(); wait()`` a concurrent run.
        """
        while not job.status.is_terminal and self.step():
            pass

    def cancel(self, job: TransferJob) -> bool:
        """Cancel a job; returns False once it is already terminal.

        The suspended phase generator is closed at its last yield point.
        It holds nothing there: the pools here are the only place a node
        or link is occupied, and they hold only the phases already placed
        on the timeline.  The freed quota headroom admits the tenant's
        next waiting job.
        """
        if job.status.is_terminal:
            return False
        if job.generator is not None and job.status is JobStatus.RUNNING:
            job.generator.close()
        job.status = JobStatus.CANCELLED
        job.finished_at = job.t_local
        job.emit("cancelled", job.t_local)
        self._retire(job)
        return True

    # ------------------------------------------------------------------ #
    def _account(self, job: TransferJob, phase: PhaseStep) -> None:
        """Place one finished phase on the timeline with contention."""
        ready = job.t_local
        starts = [ready]
        node_pool: Optional[UnitPool] = None
        link_pool: Optional[UnitPool] = None
        if phase.nodes > 0 and phase.endpoint is not None:
            node_pool = self.node_pool(phase.endpoint)
            starts.append(node_pool.earliest_start(phase.nodes, ready))
        if phase.link is not None:
            link_pool = self.link_pool(phase.link)
            starts.append(link_pool.earliest_start(1, ready))
        start = max(starts)
        finish = start + max(0.0, phase.duration_s)
        if node_pool is not None:
            node_pool.commit(phase.nodes, finish)
        if link_pool is not None:
            link_pool.commit(1, finish)
        job.emit("phase_started", start, phase=phase.name)
        files = phase.detail.get("files")
        if phase.name == "compress" and isinstance(files, list):
            for entry in files:
                job.emit("file_compressed", finish, phase=phase.name, detail=dict(entry))
        finished_detail = {
            key: value for key, value in phase.detail.items()
            if not (phase.name == "compress" and key == "files")
        }
        finished_detail["duration_s"] = finish - start
        if start - ready > 1e-12:
            # Time spent queueing for contended nodes/links after the job
            # itself was ready — the cross-tenant cost of this phase.
            finished_detail["queued_s"] = start - ready
        job.emit("phase_finished", finish, phase=phase.name, detail=finished_detail)
        job.timeline.append(
            PhaseSpan(name=phase.name, start_s=start, end_s=finish, detail=dict(phase.detail))
        )
        job.t_local = finish
        self._makespan_s = max(self._makespan_s, finish)

    def _retire(self, job: TransferJob) -> None:
        """Drop a terminal job from the active registries — O(1).

        Retiring releases the job's quota footprint and admits the
        tenant's next waiting job (if any) at the retirement time.  When
        that leaves nothing in flight, the shared clock catches up with
        the combined makespan: the one place simulated time moves.
        """
        if self._active.pop(job.job_id, None) is not None:
            tenant = job.tenant
            self._tenant_in_flight[tenant] = max(
                0, self._tenant_in_flight.get(tenant, 0) - 1
            )
            self._tenant_nodes[tenant] = max(
                0, self._tenant_nodes.get(tenant, 0) - node_footprint(job.config)
            )
        else:
            # Never admitted: remove from the admission queue (rare and
            # bounded by the tenant's own backlog).
            waiting = self._admission.get(job.tenant)
            if waiting is not None:
                try:
                    waiting.remove(job)
                except ValueError:
                    pass
                if not waiting:
                    self._admission.pop(job.tenant, None)
        if self.on_terminal is not None:
            self.on_terminal(job)
        release_time = job.finished_at if job.finished_at is not None else job.t_local
        self._drain_admission_queue(job.tenant, release_time)
        if self.idle:
            self.testbed.clock.advance_to(self._makespan_s)

    def _complete(self, job: TransferJob, report) -> None:
        job.report = report
        job.status = JobStatus.COMPLETED
        job.finished_at = job.t_local
        self._retire(job)
        job.emit(
            "completed",
            job.t_local,
            detail={
                "total_s": getattr(report, "total_s", None),
                "compression_ratio": getattr(report, "compression_ratio", None),
                "cache_hit_rate": getattr(report, "cache_hit_rate", None),
                "entropy_stage": getattr(report, "entropy_stage", "") or None,
                "block_codecs": getattr(report, "block_codecs", None),
            },
        )

    def _fail(self, job: TransferJob, error: BaseException) -> None:
        job.error = error
        job.status = JobStatus.FAILED
        job.finished_at = job.t_local
        self._retire(job)
        job.emit("failed", job.t_local, detail={"error": str(error)})
