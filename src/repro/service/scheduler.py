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
  ``normal`` one), start-time fair queueing across the tenants of a
  class second (flows carry virtual-time tags charged by phase
  duration, so tenants get equal shares and one tenant flooding the
  queue cannot starve others), and earliest ``(t_local, submit_seq)``
  within a tenant last — the original deterministic discipline.  With a single
  tenant and priority class the dispatch order is exactly the legacy
  earliest-position scan, so solo and homogeneous batches behave
  identically to the linear-scan scheduler they replace;
* all registries are dict/heap backed: ``step()`` and job eviction are
  O(log n) / O(1) instead of the old O(n) scans, so a thousand queued
  jobs drain in near-linear time;
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
from collections import Counter
from typing import Callable, Dict, Iterator, List, Optional, Tuple, TYPE_CHECKING

from ..core.phases import PhaseStep
from .events import JobEvent
from .jobs import JobStatus, PhaseSpan, TransferJob

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..faas.service import SiteTable
    from ..transfer.testbed import Testbed

__all__ = ["JobScheduler", "UnitPool"]


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
    ``d`` advances it by ``d``, so the flow that has received the least
    service is offered the next phase.  ``entry_seq`` identifies the
    flow's current entry in its class heap (stale entries are skipped
    lazily).
    """

    __slots__ = ("priority", "tenant", "tag", "jobs", "queued", "entry_seq")

    def __init__(self, priority: int, tenant: str) -> None:
        self.priority = priority
        self.tenant = tenant
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
    # Queue management
    # ------------------------------------------------------------------ #
    def add(self, job: TransferJob) -> None:
        """Enqueue a job in its flow's ready heap (its phase generator
        has not started yet)."""
        job.t_local = job.submitted_at
        job.submit_seq = next(self._submit_seq)
        self._jobs[job.job_id] = job
        self._active[job.job_id] = job
        flow = self._flow_for(job)
        heapq.heappush(flow.jobs, (job.t_local, job.submit_seq, job))
        if not flow.queued:
            self._queue_flow(flow)

    def _flow_for(self, job: TransferJob) -> _Flow:
        key = (job.priority_class, job.tenant)
        flow = self._flows.get(key)
        if flow is None:
            flow = self._flows[key] = _Flow(job.priority_class, job.tenant)
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
        """Jobs not yet terminal.

        Reads the active registry only, so the cost is the number of
        jobs in flight however many finished jobs the service still
        retains.
        """
        return iter(self._active.values())

    def in_flight(self) -> Dict[str, int]:
        """Non-terminal job counts per tenant (metrics view)."""
        return dict(Counter(job.tenant for job in self._active.values()))

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
        return not self._active

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
        """Pop the next (flow, job) to run: priority, then SFQ, then time.

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
        # Charge the phase to the flow's virtual time: the whole of SFQ.
        flow.tag += max(0.0, phase.duration_s)
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
        on the timeline.
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

        When that leaves nothing in flight, the shared clock catches up
        with the combined makespan: the one place simulated time moves.
        """
        del self._active[job.job_id]
        if self.on_terminal is not None:
            self.on_terminal(job)
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
