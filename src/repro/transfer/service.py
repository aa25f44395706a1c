"""Globus-style transfer service: submit transfers and open streams.

The service owns the endpoints and the network topology, and it is the
one place a route is priced: :meth:`TransferService.estimate` runs the
GridFTP engine over the WAN link and both ends' storage caps.
Submitting a request bills that estimate, moves the file entries
between the endpoint filesystems, and returns a
completed :class:`TransferTask` with per-task statistics (the analogue
of the Globus task pane the paper's measurements come from) — or raises.
The service keeps no record of its tasks, and it reads the shared
simulation clock to stamp a task but never moves it: whoever places the
transfer on a timeline (the multi-job scheduler) does that with the
task's duration.

Besides bulk :meth:`TransferService.submit`, the service exposes an
incremental *stream* API (:meth:`TransferService.open_stream`): chunks —
typically the ``block:<id>`` sections of a compressed blob — are handed
to the stream as each one finishes encoding, each with the simulated
time it became available, and the stream models the per-chunk wire time
on GridFTP channels.  A chunk is a size, not bytes: the caller lands
whatever it assembles at the destination itself.  A stream's times count
from its own opening (t = 0).  That is what lets the orchestrator
overlap compression, WAN transfer and decompression instead of
serialising the phases.
"""

from __future__ import annotations

import bisect
import heapq
import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import EndpointNotFoundError, TransferError
from ..utils.clock import SimulationClock
from .endpoint import GlobusEndpoint
from .gridftp import GridFTPEngine, TransferEstimate
from .network import NetworkTopology, WANLink

__all__ = [
    "TransferRequest",
    "TransferTask",
    "TransferService",
    "StreamChunk",
    "TransferStream",
]


@dataclass
class TransferRequest:
    """A request to move files between two endpoints."""

    source_endpoint: str
    destination_endpoint: str
    paths: Sequence[str]
    label: str = ""


@dataclass
class StreamChunk:
    """One chunk shipped through a :class:`TransferStream`.

    A chunk is typically one ``block:<id>`` section of a compressed blob,
    but anything with a size works.  ``available_at`` is the simulated
    time the producer finished creating the chunk; ``started_at`` /
    ``completed_at`` are when its bytes actually moved on the wire (a
    chunk waits when all channels are busy, a channel idles when the
    producer is the bottleneck).
    """

    name: str
    size_bytes: int
    available_at: float
    started_at: float
    completed_at: float

    @property
    def wait_s(self) -> float:
        """Time the chunk waited for a free channel after becoming available."""
        return max(0.0, self.started_at - self.available_at)


@dataclass
class TransferTask:
    """One completed transfer."""

    task_id: str
    request: TransferRequest
    submitted_at: float = 0.0
    started_at: float = 0.0
    completed_at: float = 0.0
    estimate: Optional[TransferEstimate] = None
    chunks: List[StreamChunk] = field(default_factory=list)

    @property
    def duration_s(self) -> float:
        """Simulated duration of the transfer itself.

        A bulk task's is its GridFTP estimate, exactly; a stream's runs
        from its first chunk's start to its last chunk's finish.
        """
        if self.estimate is not None:
            return self.estimate.duration_s
        return max(0.0, self.completed_at - self.started_at)

    @property
    def bytes_transferred(self) -> int:
        """Total bytes moved by the task (summing chunks for streamed tasks)."""
        if self.chunks:
            return sum(chunk.size_bytes for chunk in self.chunks)
        return self.estimate.total_bytes if self.estimate else 0

    @property
    def effective_speed_mbps(self) -> float:
        """Effective speed in MB/s over everything the task moved.

        Streamed tasks have no bulk estimate; their volume comes from the
        per-chunk records, so multi-chunk tasks report a real speed
        instead of zero.
        """
        if self.duration_s <= 0:
            return 0.0
        moved = self.bytes_transferred
        if moved <= 0:
            return 0.0
        return moved / 1e6 / self.duration_s


class TransferStream:
    """An incremental transfer: chunks ship as the producer finishes them.

    The stream owns ``concurrency`` GridFTP channels.  Each chunk is
    assigned to the earliest-free channel but cannot start before its
    ``available_at`` time — so when compression is the bottleneck the
    channels idle, and when the WAN is the bottleneck chunks queue.  The
    resulting per-chunk timeline is exactly the compute/network overlap
    the bulk path cannot express.  Times count from the stream's opening
    (t = 0).
    """

    def __init__(
        self,
        task: TransferTask,
        engine: GridFTPEngine,
        link,
        storage_read_bps: float,
        storage_write_bps: float,
    ) -> None:
        self.task = task
        self._engine = engine
        self._link = link
        settings = engine.settings
        self._channels_count = max(1, settings.concurrency)
        # Control-channel establishment costs a few RTTs, paid once per
        # stream (the bulk engine charges the same session setup).
        ready = 3.0 * link.rtt_s
        self._channels: List[float] = [ready] * self._channels_count
        heapq.heapify(self._channels)
        self._storage_read_bps = storage_read_bps
        self._storage_write_bps = storage_write_bps
        self._bandwidth_cache: Dict[int, float] = {}
        self._overhead_s = engine.per_chunk_overhead_s(link)
        #: Every sent chunk's start and completion time, each list sorted.
        self._starts: List[float] = []
        self._completions: List[float] = []
        self._closed = False

    # ------------------------------------------------------------------ #
    @property
    def last_completion_s(self) -> float:
        """Simulated time the latest-finishing chunk leaves the wire."""
        return self._completions[-1] if self._completions else 0.0

    def _bandwidth_bps(self, active_channels: int) -> float:
        active = max(1, min(self._channels_count, active_channels))
        cached = self._bandwidth_cache.get(active)
        if cached is None:
            cached = self._engine.channel_bandwidth_bps(
                self._link,
                active,
                storage_read_bps=self._storage_read_bps,
                storage_write_bps=self._storage_write_bps,
            )
            self._bandwidth_cache[active] = cached
        return cached

    def _in_flight_at(self, when: float) -> int:
        """Chunks occupying a channel at simulated time ``when``.

        No chunk completes before it starts, so they are the chunks
        started by ``when`` less those completed by then: two binary
        searches, not a scan of every chunk sent.
        """
        return bisect.bisect_right(self._starts, when) - bisect.bisect_right(
            self._completions, when
        )

    def chunk_duration_s(self, size_bytes: int, active_channels: int = 1) -> float:
        """Wire time one chunk of ``size_bytes`` needs.

        ``active_channels`` is how many chunks share the link while this
        one moves: a lone chunk opens up to the full aggregate bandwidth
        (its TCP streams permitting) instead of idling seven of eight
        channels — that is what makes a producer-limited trickle of
        blocks competitive with one bulk transfer.
        """
        return size_bytes / self._bandwidth_bps(active_channels) + self._overhead_s

    def send_chunk(self, name: str, size_bytes: int, available_at: float = 0.0) -> StreamChunk:
        """Ship one chunk of ``size_bytes``; returns its simulated wire timeline.

        ``available_at`` defaults to the stream's opening.  Chunks may be
        handed over out of order; each one simply takes the earliest
        channel that is free once the chunk exists.
        """
        if self._closed:
            raise TransferError(f"stream {self.task.task_id} is already closed")
        size = int(size_bytes)
        if size < 0:
            raise TransferError(f"chunk {name!r} has negative size")
        when = float(available_at)
        channel_free = heapq.heappop(self._channels)
        started = max(when, channel_free)
        active = self._in_flight_at(started) + 1
        completed = started + self.chunk_duration_s(size, active)
        heapq.heappush(self._channels, completed)
        bisect.insort(self._starts, started)
        bisect.insort(self._completions, completed)
        chunk = StreamChunk(
            name=name,
            size_bytes=size,
            available_at=when,
            started_at=started,
            completed_at=completed,
        )
        self.task.chunks.append(chunk)
        return chunk

    def close(self) -> TransferTask:
        """Finish the stream and seal its task.

        Nothing lands at the destination here: the caller writes what it
        assembles from the chunks (e.g. a blob rebuilt from its block
        sections) itself.
        """
        if self._closed:
            raise TransferError(f"stream {self.task.task_id} is already closed")
        self._closed = True
        task = self.task
        task.request.paths = [chunk.name for chunk in task.chunks]
        task.started_at = self._starts[0] if self._starts else 0.0
        task.completed_at = self.last_completion_s
        return task


class TransferService:
    """The simulated Globus transfer service.

    One :class:`GridFTPEngine`, with the default settings, prices every
    route and stream.
    """

    def __init__(self, topology: NetworkTopology, clock: Optional[SimulationClock] = None) -> None:
        self.topology = topology
        self.clock = clock or SimulationClock()
        self.engine = GridFTPEngine()
        self._endpoints: Dict[str, GlobusEndpoint] = {}
        self._task_counter = itertools.count(1)

    # ------------------------------------------------------------------ #
    # Endpoint management
    # ------------------------------------------------------------------ #
    def register_endpoint(self, endpoint: GlobusEndpoint) -> None:
        """Add an endpoint to the service."""
        self._endpoints[endpoint.name] = endpoint

    def endpoint(self, name: str) -> GlobusEndpoint:
        """Look up an endpoint by name."""
        try:
            return self._endpoints[name]
        except KeyError as exc:
            raise EndpointNotFoundError(
                f"unknown endpoint {name!r}; registered: {sorted(self._endpoints)}"
            ) from exc

    def endpoints(self) -> List[str]:
        """Names of all registered endpoints."""
        return sorted(self._endpoints)

    # ------------------------------------------------------------------ #
    # Transfers
    # ------------------------------------------------------------------ #
    def _route(self, source: str, destination: str) -> Tuple[WANLink, float, float]:
        """The WAN link between two endpoints, with the source's aggregate
        storage read cap and the destination's write cap (per-DTN
        bandwidth times DTNs)."""
        src, dst = self.endpoint(source), self.endpoint(destination)
        return (
            self.topology.link(src.name, dst.name),
            src.storage_read_bps * src.dtn_count,
            dst.storage_write_bps * dst.dtn_count,
        )

    def estimate(self, source: str, destination: str, sizes: Sequence[int]) -> TransferEstimate:
        """What moving files of ``sizes`` bytes from ``source`` to
        ``destination`` costs: the route model :meth:`submit` bills.

        Nothing moves.
        """
        link, read_bps, write_bps = self._route(source, destination)
        return self.engine.estimate(
            sizes, link, storage_read_bps=read_bps, storage_write_bps=write_bps
        )

    def submit(self, request: TransferRequest) -> TransferTask:
        """Execute a transfer request: move the files, time it by :meth:`estimate`.

        The task starts at the clock's current time and lasts its
        estimate; the clock itself does not move.  A request that cannot
        run (no paths, a missing file, no route) raises and moves nothing.
        """
        source = self.endpoint(request.source_endpoint)
        destination = self.endpoint(request.destination_endpoint)
        if not request.paths:
            raise TransferError("transfer request contains no paths")
        sizes = [source.filesystem.stat(path).size_bytes for path in request.paths]
        estimate = self.estimate(source.name, destination.name, sizes)
        destination.filesystem.copy_from(source.filesystem, request.paths)
        now = self.clock.now
        return TransferTask(
            task_id=f"task-{next(self._task_counter):06d}",
            request=request,
            submitted_at=now,
            started_at=now,
            completed_at=now + estimate.duration_s,
            estimate=estimate,
        )

    def open_stream(
        self, source_endpoint: str, destination_endpoint: str, label: str = ""
    ) -> TransferStream:
        """Open an incremental transfer between two endpoints.

        Unlike :meth:`submit`, the file list is not known up front:
        chunks are handed to the returned :class:`TransferStream` as the
        producer finishes them, and :meth:`TransferStream.close` seals
        the task.  The stream reads no clock: its chunk times count from
        its opening.  Its channels share the route :meth:`estimate` prices.
        """
        route = self._route(source_endpoint, destination_endpoint)
        task = TransferTask(
            task_id=f"task-{next(self._task_counter):06d}",
            request=TransferRequest(
                source_endpoint=source_endpoint,
                destination_endpoint=destination_endpoint,
                paths=[],
                label=label or "stream",
            ),
        )
        return TransferStream(task, self.engine, *route)
