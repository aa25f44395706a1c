"""Parallel (de)compression executor and scaling model.

Two concerns live here:

1. **Really doing the work** — the blocks of one file, optionally across
   local worker threads, and the process's :class:`HelperLane`.
2. **Modelling the cluster** — scheduling per-file compute times (each
   file's bytes at an assumed native-compressor throughput) into the
   makespan a multi-node MPI job would achieve.  Compression scales
   with cores until the number of files saturates the parallelism
   (Fig. 9 left); decompression is limited by parallel-filesystem write
   contention, so beyond a few nodes it *slows down* (Fig. 9 right).
"""

from __future__ import annotations

import queue
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence, TypeVar

from ..errors import ConfigurationError
from ..transfer.gridftp import lpt_makespan

__all__ = ["ParallelCostModel", "MakespanEstimate", "ParallelExecutor", "HelperLane", "LaneCall"]

T = TypeVar("T")
R = TypeVar("R")


class LaneCall:
    """A call handed to the :class:`HelperLane`; the first thread to claim it runs it."""

    def __init__(self, func: Callable[..., Any], args: tuple) -> None:
        self._call, self._claim, self._done = (func, args), threading.Lock(), threading.Lock()
        self._done.acquire()  # released once the call has run (cheaper than an Event)
        self._value = self._error = None

    def run(self) -> None:
        """Run the call on this thread, unless another thread has claimed it."""
        if self._claim.acquire(blocking=False):
            (func, args), self._call = self._call, None
            try:
                self._value = func(*args)
            except BaseException as exc:  # re-raised by result(), on the caller's thread
                self._error = exc
            self._done.release()

    def result(self) -> Any:
        """The call's value (run here if still queued), or its exception re-raised."""
        self.run()
        with self._done:  # held until the call has run
            pass
        if self._error is not None:
            raise self._error
        return self._value


class HelperLane:
    """One named daemon thread, started on first use, for calls that release the GIL
    throughout (deflate, inflate, blake2b, NumPy reductions over a file)."""

    #: Calls over fewer bytes run on the caller: a hand-over costs tens of microseconds.
    GRAIN_BYTES = 1 << 14

    def __init__(self, name: str = "ocelot-lane") -> None:
        self.name, self._queue, self._thread = name, queue.SimpleQueue(), None
        self._start_lock = threading.Lock()

    def submit(self, fn: Callable[..., Any], *args: Any, nbytes: Optional[int] = None) -> LaneCall:
        """Queue ``fn(*args)`` on the lane, or run it here when ``nbytes`` is under the grain."""
        call = LaneCall(fn, args)
        if nbytes is not None and nbytes < self.GRAIN_BYTES:
            call.run()
            return call
        with self._start_lock:
            if self._thread is None:
                self._thread = threading.Thread(target=self._serve, name=self.name, daemon=True)
                self._thread.start()
        self._queue.put(call)
        return call

    def _serve(self) -> None:
        while True:
            self._queue.get().run()

    @staticmethod
    def gather(values: Sequence[Any]) -> List[Any]:
        """``values`` with each :class:`LaneCall` resolved, in order.  Calls still
        queued run here first, so the lane is never the critical path."""
        for call in values:
            if isinstance(call, LaneCall):
                call.run()
        return [value.result() if isinstance(value, LaneCall) else value for value in values]


@dataclass
class MakespanEstimate:
    """Simulated makespan of a parallel job built from per-file timings."""

    makespan_s: float
    compute_s: float
    io_s: float
    cores_used: int
    nodes: int
    files: int


@dataclass(frozen=True)
class ParallelCostModel:
    """Cluster parameters for the makespan model.

    ``pfs_write_bps`` and ``writer_saturation_cores`` control the
    decompression-side I/O contention: the effective parallel-filesystem
    write bandwidth degrades as ``1 / (1 + (writers / saturation)^gamma)``,
    which yields the non-monotonic decompression scaling of Fig. 9.
    """

    parallel_efficiency: float = 0.9
    startup_s_per_node: float = 0.05
    pfs_write_bps: float = 40e9
    pfs_read_bps: float = 80e9
    writer_saturation_cores: int = 256
    io_contention_gamma: float = 1.6

    def write_bandwidth(self, writers: int) -> float:
        """Aggregate write bandwidth achieved by ``writers`` concurrent writers."""
        ratio = max(0.0, writers / self.writer_saturation_cores)
        return self.pfs_write_bps / (1.0 + ratio**self.io_contention_gamma)

    def cores(self, nodes: int, cores_per_node: int) -> int:
        """Cores a job on ``nodes`` nodes effectively computes on."""
        return max(1, int(nodes * cores_per_node * self.parallel_efficiency))


class ParallelExecutor:
    """Run per-file work and model its parallel execution on a cluster."""

    #: The process's one helper lane, whatever ``block_workers`` is.
    lane = HelperLane()
    #: The cluster every makespan is scheduled onto.
    cluster = ParallelCostModel()

    def __init__(self, block_workers: int = 1) -> None:
        if block_workers < 1:
            raise ConfigurationError("block_workers must be >= 1")
        self.block_workers = block_workers

    # ------------------------------------------------------------------ #
    # Real execution
    # ------------------------------------------------------------------ #
    def map_blocks(self, func: Callable[[T], R], items: Sequence[T]) -> List[R]:
        """Apply per-block work on a thread pool of ``block_workers`` threads.

        Threads pay only on large blocks (their tasks are chains of short
        NumPy calls), so the pipeline sends blocks here only at or above
        its grain, ``_POOL_GRAIN_ELEMENTS``.  Results are returned in item
        order; ``func`` may write shared state (blocked decode fills one
        output array).
        """
        if self.block_workers == 1 or len(items) <= 1:
            return [func(item) for item in items]
        workers = min(self.block_workers, len(items))
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(func, items))

    # ------------------------------------------------------------------ #
    # Cluster makespan models
    # ------------------------------------------------------------------ #
    def _makespan(
        self,
        per_file_times_s: Sequence[float],
        per_file_output_bytes: Sequence[int],
        nodes: int,
        cores_per_node: int,
    ) -> MakespanEstimate:
        """Makespan of a parallel compression or decompression job.

        LPT scheduling of the per-file times over the effective core
        count, plus node start-up and the write of every file's output to
        the shared parallel filesystem, where each active core is a
        writer.  One model serves both directions; what separates them is
        the output.  Compression writes compressed bytes, so it is
        compute-bound and the write term rarely binds.  Decompression
        writes full-size reconstructions, so write contention grows with
        the active cores: beyond a few nodes the I/O term dominates and
        adding nodes makes the job slower (Fig. 9 right).
        """
        times = per_file_times_s
        if nodes < 1 or cores_per_node < 1:
            raise ConfigurationError("nodes and cores_per_node must be >= 1")
        effective_cores = self.cluster.cores(nodes, cores_per_node)
        cores_used = min(effective_cores, max(1, len(times)))
        compute = lpt_makespan(times, effective_cores)
        io_time = sum(per_file_output_bytes) / self.cluster.write_bandwidth(cores_used)
        makespan = compute + io_time + self.cluster.startup_s_per_node * nodes
        return MakespanEstimate(
            makespan_s=float(makespan),
            compute_s=float(sum(times)),
            io_s=float(io_time),
            cores_used=cores_used,
            nodes=nodes,
            files=len(times),
        )

    compression_makespan = _makespan
    decompression_makespan = _makespan
