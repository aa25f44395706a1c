"""Parallel (de)compression executor and scaling model.

Two concerns live here:

1. **Really doing the work** — the blocks of one file, optionally across
   local worker threads.
2. **Modelling the cluster** — scheduling per-file compute times (each
   file's bytes at an assumed native-compressor throughput) into the
   makespan a multi-node MPI job would achieve.  Compression scales
   with cores until the number of files saturates the parallelism
   (Fig. 9 left); decompression is limited by parallel-filesystem write
   contention, so beyond a few nodes it *slows down* (Fig. 9 right).
"""

from __future__ import annotations

import heapq
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, TypeVar

from ..errors import ConfigurationError

__all__ = [
    "ParallelCostModel",
    "MakespanEstimate",
    "ParallelExecutor",
]

T = TypeVar("T")
R = TypeVar("R")


@dataclass
class MakespanEstimate:
    """Simulated makespan of a parallel job built from per-file timings."""

    makespan_s: float
    compute_s: float
    io_s: float
    cores_used: int
    nodes: int
    files: int

    @property
    def speedup_vs_serial(self) -> float:
        """Speed-up relative to running all files on one core."""
        serial = self.compute_s
        return serial / self.makespan_s if self.makespan_s > 0 else float("inf")


@dataclass
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

    def __post_init__(self) -> None:
        if not 0 < self.parallel_efficiency <= 1:
            raise ConfigurationError("parallel_efficiency must be in (0, 1]")
        if self.pfs_write_bps <= 0 or self.pfs_read_bps <= 0:
            raise ConfigurationError("filesystem bandwidths must be positive")
        if self.writer_saturation_cores < 1:
            raise ConfigurationError("writer_saturation_cores must be >= 1")

    def write_bandwidth(self, writers: int) -> float:
        """Aggregate write bandwidth achieved by ``writers`` concurrent writers."""
        ratio = max(0.0, writers / self.writer_saturation_cores)
        return self.pfs_write_bps / (1.0 + ratio**self.io_contention_gamma)

    def cores(self, nodes: int, cores_per_node: int) -> int:
        """Cores a job on ``nodes`` nodes effectively computes on."""
        return max(1, int(nodes * cores_per_node * self.parallel_efficiency))


def _lpt_makespan(times: Sequence[float], workers: int) -> float:
    """Longest-processing-time greedy schedule makespan."""
    if not times:
        return 0.0
    workers = max(1, workers)
    heap = [0.0] * min(workers, len(times))
    heapq.heapify(heap)
    for cost in sorted(times, reverse=True):
        earliest = heapq.heappop(heap)
        heapq.heappush(heap, earliest + cost)
    return max(heap)


class ParallelExecutor:
    """Run per-file work and model its parallel execution on a cluster."""

    def __init__(
        self,
        cost_model: Optional[ParallelCostModel] = None,
        block_workers: int = 1,
    ) -> None:
        if block_workers < 1:
            raise ConfigurationError("block_workers must be >= 1")
        self.cost_model = cost_model or ParallelCostModel()
        self.block_workers = block_workers

    # ------------------------------------------------------------------ #
    # Real execution
    # ------------------------------------------------------------------ #
    def map_blocks(self, func: Callable[[T], R], items: Sequence[T]) -> List[R]:
        """Apply per-block work concurrently on the block thread pool.

        The hot kernels (NumPy ufuncs, deflate) release the GIL, so blocks
        of one file genuinely overlap on multicore hosts.  Results are
        returned in item order; ``func`` may write shared state (blocked
        decode fills one output array).
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
        effective_cores = self.cost_model.cores(nodes, cores_per_node)
        cores_used = min(effective_cores, max(1, len(times)))
        compute = _lpt_makespan(times, effective_cores)
        io_time = sum(per_file_output_bytes) / self.cost_model.write_bandwidth(cores_used)
        makespan = compute + io_time + self.cost_model.startup_s_per_node * nodes
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
