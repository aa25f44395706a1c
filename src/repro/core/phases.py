"""Transfer phases: the resumable units an orchestrated transfer is made of.

A transfer is the paper's Fig. 1/2 pipeline — stage, plan, wait for nodes
while the sentinel ships raw files, compress, group, transfer,
decompress — and Table VIII's NP / CP / OP modes differ only in which of
those run: :data:`MODE_PHASES` says which, :data:`PHASES` maps each name
to a function ``phase(orchestrator, run)`` that does the phase's real
work on the :class:`TransferRun` record and returns the
:class:`PhaseStep` to yield, or ``None`` when the phase does not apply.
A phase computes its duration and never moves the simulation clock:
the :class:`~repro.service.JobScheduler` resumes
``OcelotOrchestrator.iter_phases`` one yield at a time, places each
step on the nodes and WAN link it occupies, and is the clock's one
owner — a solo job and a job in a batch yield the same steps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

from ..compression import CompressedBlob
from ..datasets.base import ScientificDataset
from ..transfer.service import TransferRequest
from .planner import CompressionPlan
from .reporting import PhaseTimings
from .streaming import StreamingPipeline

if TYPE_CHECKING:
    from .orchestrator import OcelotOrchestrator, StagedFile, _CacheProbe

__all__ = ["PhaseStep", "PHASE_ORDER", "MODE_PHASES", "PHASES", "TransferRun"]

#: The phases of a compressed transfer in execution order.  A streamed
#: run's ``stream`` phase does the work of ``compress`` / ``transfer`` /
#: ``decompress`` overlapped, and those then yield nothing; on a bulk run
#: it is ``stream`` that yields nothing.
PHASE_ORDER: Tuple[str, ...] = (
    "stage",
    "plan",
    "wait",
    "stream",
    "compress",
    "group",
    "transfer",
    "decompress",
)

#: Transfer mode -> the phases it runs, as keys of :data:`PHASES`.  CP
#: and OP run the same list (``group`` bundles files only in grouped
#: mode); ``ship_raw`` reports itself as a ``transfer`` step.
MODE_PHASES: Dict[str, Tuple[str, ...]] = {
    "direct": ("stage", "ship_raw"),
    "compressed": PHASE_ORDER,
    "grouped": PHASE_ORDER,
}


@dataclass
class PhaseStep:
    """One completed phase of a transfer job.

    The phase's real work (compression, file-system writes, duration
    modelling) happens *before* its step is yielded; the step records
    what the driver needs for time accounting:

    Attributes:
        name: phase name (one of :data:`PHASE_ORDER`).
        duration_s: simulated duration of the phase for this job.
        endpoint: endpoint whose compute resources the phase occupies
            (``None`` for phases that hold no nodes).
        nodes: compute nodes held for the duration of the phase.
        link: ``(source, destination)`` WAN link the phase occupies, or
            ``None`` for local phases.
        detail: structured facts about the phase (bytes compressed,
            bytes shipped, per-file progress, ...) used for the job
            event feed.
    """

    name: str
    duration_s: float = 0.0
    endpoint: Optional[str] = None
    nodes: int = 0
    link: Optional[Tuple[str, str]] = None
    detail: Dict[str, object] = field(default_factory=dict)


@dataclass
class CompressionOutcome:
    """The compressed files of one run, bulk or streamed.

    The bulk ``compress`` phase fills every list (cache hits join as
    stored bytes); a streamed run records each file's output and
    original bytes as the destination assembles it, and no ``blobs``.
    """

    blobs: List[Tuple[str, bytes]] = field(default_factory=list)
    #: Cluster-scale seconds per file: its staged bytes at the assumed
    #: compression throughput (``OcelotConfig.simulated_compute_s``).
    per_file_times_s: List[float] = field(default_factory=list)
    per_file_output_bytes: List[int] = field(default_factory=list)
    original_bytes: int = 0
    #: Distinct entropy stages of the blobs (insertion-ordered), and the
    #: per-codec block counts of the multi-block ones' index entries —
    #: what ``ocelot inspect`` shows per blob, summed per job.  Read at
    #: the destination, for every blob that crossed: fresh, cached or
    #: streamed.
    entropy_stages: List[str] = field(default_factory=list)
    block_codecs: Dict[str, int] = field(default_factory=dict)

    @property
    def compressed_bytes(self) -> int:
        """Total compressed output size."""
        return sum(self.per_file_output_bytes)

    @property
    def ratio(self) -> float:
        """Compression ratio over the compressed subset."""
        if self.compressed_bytes == 0:
            return float("inf")
        return self.original_bytes / self.compressed_bytes


@dataclass
class TransferRun:
    """Everything one transfer knows: each phase reads what earlier phases
    left here and adds its own, and the report is built from it alone."""

    dataset: ScientificDataset
    source: str
    destination: str
    mode: str
    timings: PhaseTimings = field(default_factory=PhaseTimings)
    notes: List[str] = field(default_factory=list)
    staged: List["StagedFile"] = field(default_factory=list)
    plan: Optional[CompressionPlan] = None
    #: One probe per staged file (``None`` with the cache off) and the
    #: probes whose stored bytes this run ships instead of compressing.
    probes: Optional[List["_CacheProbe"]] = None
    hits: List["_CacheProbe"] = field(default_factory=list)
    #: Whether this run goes through the ``stream`` phase — settled by
    #: ``wait``, once the cache has said what is left to encode.
    streamed: bool = False
    #: Compute nodes the compression job asked for (0: none, a full cache
    #: hit), and those the destination decodes on — both capped at their
    #: site's partition.
    nodes: int = 0
    decompression_nodes: int = 0
    #: Files the sentinel shipped raw, and the rest still to compress.
    raw_paths: List[str] = field(default_factory=list)
    to_compress: List["StagedFile"] = field(default_factory=list)
    outcome: CompressionOutcome = field(default_factory=CompressionOutcome)
    ratio: float = 1.0
    #: Source-side paths handed to the WAN transfer.
    transfer_paths: List[str] = field(default_factory=list)
    #: What has reached the destination so far, raw files included.
    shipped_files: int = 0
    shipped_bytes: int = 0
    quality: Dict[str, float] = field(default_factory=dict)

    @property
    def total_bytes(self) -> int:
        """Staged size of the whole dataset."""
        return sum(f.size_bytes for f in self.staged)


def _stage(orch: "OcelotOrchestrator", run: TransferRun) -> PhaseStep:
    run.staged = orch.stage(run.dataset, run.source)
    return PhaseStep(
        "stage",
        endpoint=run.source,
        detail={"files": len(run.staged), "bytes": run.total_bytes},
    )


def _ship_raw(orch: "OcelotOrchestrator", run: TransferRun) -> PhaseStep:
    """Direct (NP): the staged files themselves cross the WAN."""
    run.transfer_paths = [f.path for f in run.staged]
    return _transfer(orch, run)


def _plan(orch: "OcelotOrchestrator", run: TransferRun) -> PhaseStep:
    representative = run.staged[0].field
    plan = run.plan = orch.planner.plan(representative=representative)
    if plan.used_predictor:
        # The planner sweeps the candidate bounds with the one configured compressor.
        run.timings.planning_s = orch.config.simulated_planning_s(
            representative.nbytes, len(orch.config.candidate_error_bounds)
        )
    return PhaseStep(
        "plan",
        duration_s=run.timings.planning_s,
        detail={
            "compressor": plan.compressor,
            "error_bound": plan.error_bound.describe(),
            "used_predictor": plan.used_predictor,
        },
    )


def _wait(orch: "OcelotOrchestrator", run: TransferRun) -> PhaseStep:
    """Request compute nodes; the sentinel ships raw files meanwhile."""
    _split_by_cache(orch, run)
    timings = run.timings
    run.decompression_nodes = min(
        orch.config.decompression_nodes,
        orch.faas.scheduler(run.destination).total_nodes,
    )
    # A full cache hit skips the batch-scheduler request entirely —
    # those nodes stay free for cold jobs.
    if run.to_compress:
        scheduler = orch.faas.scheduler(run.source)
        # Capped at the size of the source site's partition.  The batch
        # scheduler only samples the queue wait: the job scheduler's node
        # pools are where the nodes are occupied.
        run.nodes = min(orch.config.compression_nodes, scheduler.total_nodes)
        timings.node_wait_s = scheduler.queue_wait(run.nodes)
        _sentinel_ships_raw(orch, run)
    waited = max(timings.node_wait_s, timings.raw_transfer_s)
    return PhaseStep(
        "wait",
        duration_s=waited,
        endpoint=run.source,
        detail={
            "node_wait_s": timings.node_wait_s,
            "raw_files": len(run.raw_paths),
            "raw_transfer_s": timings.raw_transfer_s,
        },
    )


def _split_by_cache(orch: "OcelotOrchestrator", run: TransferRun) -> None:
    """Consult the blob cache and decide what is left to encode.

    Files whose compressed bytes are already stored skip compression
    entirely.  A streamed run only streams freshly encoded files, so
    it takes hits all-or-nothing: a partial hit is set aside (those
    files stream uncached) and a full hit ships the cached blobs in
    bulk, there being nothing left to encode.
    """
    run.probes = orch._consult_blob_cache(run.staged, run.plan)
    run.streamed = orch.config.transfer_mode == "streamed" and run.mode == "compressed"
    hits = [p for p in run.probes or () if p.payload is not None]
    if run.streamed and 0 < len(hits) < len(run.staged):
        run.notes.append(f"streamed run bypassed {len(hits)} partial blob-cache hits")
        hits = []
    run.hits = hits
    hit_paths = {p.file.path for p in hits}
    run.to_compress = [f for f in run.staged if f.path not in hit_paths]
    if run.streamed and not run.to_compress:
        run.streamed = False
        run.notes.append("full blob-cache hit: streamed run shipped cached blobs in bulk")
    if hits:
        run.notes.append(
            f"blob cache served {len(hits)}/{len(run.staged)} files "
            f"(mode {orch.config.cache_mode})"
        )


def _sentinel_ships_raw(orch: "OcelotOrchestrator", run: TransferRun) -> None:
    """Sentinel: transfer raw files while waiting for nodes.

    Cache-hit files are never shipped raw — their compressed bytes
    already exist — so only the files still to compress are eligible.
    """
    wait_s = run.timings.node_wait_s
    if not orch.config.sentinel_enabled or wait_s <= orch.config.sentinel_wait_threshold_s:
        return
    decision = orch.sentinel.plan(
        [(f.path, f.size_bytes) for f in run.to_compress],
        wait_s=wait_s,
        link=orch.testbed.service.topology.link(run.source, run.destination),
        threshold_s=orch.config.sentinel_wait_threshold_s,
    )
    run.timings.raw_transfer_s = decision.raw_transfer_s
    if not decision.raw_paths:
        return
    # The decision is a prefix of the files it was offered.
    run.raw_paths = decision.raw_paths
    run.to_compress = run.to_compress[len(run.raw_paths):]
    run.shipped_files, run.shipped_bytes = len(run.raw_paths), decision.raw_bytes
    orch.testbed.endpoint(run.destination).filesystem.copy_from(
        orch.testbed.endpoint(run.source).filesystem, run.raw_paths
    )
    run.notes.append(
        f"sentinel transferred {len(run.raw_paths)} files raw during a "
        f"{wait_s:.0f}s node wait"
    )


def _stream(orch: "OcelotOrchestrator", run: TransferRun) -> Optional[PhaseStep]:
    """Streamed transfer: overlap compress → WAN → decode per block.

    Does the work of the ``compress`` / ``transfer`` / ``decompress``
    phases and fills the record they fill; they then yield nothing.
    Grouped mode keeps the bulk path: groups bundle whole compressed
    files, which defeats per-block streaming.
    """
    if not run.streamed:
        if orch.config.transfer_mode == "streamed" and run.mode == "grouped":
            run.notes.append(
                "grouped mode keeps the bulk path; use mode='compressed' "
                "for streamed block transfer"
            )
        return None
    chunks = StreamingPipeline(orch, run).run()
    timings = run.timings
    if chunks:
        saved_s = max(0.0, timings.serialized_s - timings.streaming_s)
        run.notes.append(
            f"streamed {chunks} block chunks "
            f"(window {orch.config.stream_window}); overlap saved "
            f"{saved_s:.1f}s vs serialised phases"
        )
    return PhaseStep(
        "stream",
        duration_s=timings.streaming_s,
        endpoint=run.source,
        nodes=run.nodes,
        link=(run.source, run.destination),
        detail={"bytes_shipped": run.shipped_bytes, "chunks": chunks},
    )


def _compress(orch: "OcelotOrchestrator", run: TransferRun) -> Optional[PhaseStep]:
    """Really compress what is left; cache hits join as stored bytes."""
    if run.streamed:
        return None
    timings = run.timings
    probes = {p.file.path: p for p in run.probes or ()}
    outcome = run.outcome = orch._compress_files(run.to_compress, run.plan, probes)
    if run.nodes:
        timings.compression_s = orch.executor.compression_makespan(
            outcome.per_file_times_s,
            outcome.per_file_output_bytes,
            nodes=run.nodes,
            cores_per_node=orch.config.cores_per_node,
        ).makespan_s
    # Cached blobs are read off the parallel filesystem instead of
    # being recomputed; billing that read keeps warm runs honest
    # (tiny, but never free).
    cache_read_s = 0.0
    for probe in run.hits:
        payload = probe.payload
        outcome.blobs.append((probe.file.field.filename, payload))
        outcome.per_file_output_bytes.append(int(len(payload) * orch.config.size_scale))
        outcome.original_bytes += probe.file.size_bytes
        cache_read_s += (
            len(payload) * orch.config.size_scale / orch.executor.cost_model.pfs_read_bps
        )
    timings.compression_s += cache_read_s
    if outcome.blobs:
        run.ratio = outcome.ratio
    return PhaseStep(
        "compress",
        duration_s=timings.compression_s,
        endpoint=run.source,
        # A full cache hit ran on zero compute nodes: the scheduler's
        # per-endpoint node pool must not bill this phase.
        nodes=run.nodes,
        detail=_compress_detail(orch, run),
    )


def _compress_detail(orch: "OcelotOrchestrator", run: TransferRun) -> Dict[str, Any]:
    """Per-file sizes and cache outcome for the job event feed."""
    outcome = run.outcome
    hit_names = {p.file.field.filename for p in run.hits}
    files = []
    for (name, _), size in zip(outcome.blobs, outcome.per_file_output_bytes):
        entry: Dict[str, Any] = {"name": name, "bytes": size}
        if run.probes is not None:
            entry["cache"] = "hit" if name in hit_names else "miss"
        files.append(entry)
    detail: Dict[str, Any] = {
        "files": files,
        "bytes_compressed": outcome.compressed_bytes,
        "original_bytes": outcome.original_bytes,
        "ratio": run.ratio,
    }
    if run.probes is not None:
        detail["cache"] = {
            "mode": orch.config.cache_mode,
            "hits": len(run.hits),
            "misses": len(run.probes) - len(run.hits),
            "hit_rate": len(run.hits) / len(run.probes),
        }
    return detail


def _group(orch: "OcelotOrchestrator", run: TransferRun) -> Optional[PhaseStep]:
    """Land the compressed blobs on the source filesystem for shipping.

    Grouped mode (OP) bundles them into group files plus a metadata
    file and reports a step; otherwise every blob lands as its own
    ``.sz`` file and the phase yields nothing.
    """
    if run.streamed or not run.outcome.blobs:
        return None
    config = orch.config
    blobs = run.outcome.blobs
    filesystem = orch.testbed.endpoint(run.source).filesystem
    scoped_name = orch._scoped(run.dataset.name)
    if run.mode != "grouped":
        for name, payload in blobs:
            path = f"/compressed/{scoped_name}/{name}.sz"
            filesystem.write(
                path, data=payload, size_bytes=int(len(payload) * config.size_scale)
            )
            run.transfer_paths.append(path)
        return None
    groups, plan_info = orch.grouper.build_groups(
        blobs,
        world_size=None if config.group_target_bytes else config.group_world_size,
        target_bytes=config.group_target_bytes,
        prefix=f"{run.dataset.name}",
    )
    grouped_bytes = 0
    for group in groups:
        path = f"/groups/{scoped_name}/{group.name}"
        size = int(group.size_bytes * config.size_scale)
        filesystem.write(path, data=group.payload, size_bytes=size)
        run.transfer_paths.append(path)
        grouped_bytes += size
    metadata_path = f"/groups/{scoped_name}/metadata.txt"
    filesystem.write(metadata_path, data=plan_info.metadata_text().encode("utf-8"))
    run.transfer_paths.append(metadata_path)
    run.timings.grouping_s = grouped_bytes / orch.executor.cost_model.pfs_write_bps * 2.0
    run.notes.append(f"grouped {len(blobs)} compressed files into {len(groups)} groups")
    return PhaseStep(
        "group",
        duration_s=run.timings.grouping_s,
        endpoint=run.source,
        detail={"groups": len(groups), "grouped_bytes": grouped_bytes},
    )


def _transfer(orch: "OcelotOrchestrator", run: TransferRun) -> Optional[PhaseStep]:
    """Move the landed artefacts over the WAN."""
    if run.streamed:
        return None
    if run.transfer_paths:
        task = orch.testbed.service.submit(
            TransferRequest(
                source_endpoint=run.source,
                destination_endpoint=run.destination,
                paths=run.transfer_paths,
                label=f"{run.dataset.name}:{run.mode}",
            )
        )
        run.timings.transfer_s = task.duration_s
        run.shipped_bytes += task.bytes_transferred
    run.shipped_files += len(run.transfer_paths)
    return PhaseStep(
        "transfer",
        duration_s=run.timings.transfer_s,
        link=(run.source, run.destination),
        detail={"bytes_shipped": run.shipped_bytes, "files": run.shipped_files},
    )


def _decompress(orch: "OcelotOrchestrator", run: TransferRun) -> Optional[PhaseStep]:
    """Really decompress at the destination and measure the result.

    Every blob that landed — cache hits included, so a warm run reports
    its cold run's PSNR — goes through the destination step the stream's
    consumer uses (``OcelotOrchestrator._decompress_files``); each file
    is billed its reconstruction's bytes at the decompression throughput.
    """
    if run.streamed:
        return None
    config = orch.config
    received = _received_blobs(orch, run)
    output_bytes = orch._decompress_files(
        run, ((name, CompressedBlob.from_bytes(payload)) for name, payload in received)
    )
    if output_bytes:
        run.timings.decompression_s = orch.executor.decompression_makespan(
            [
                config.simulated_compute_s(size, config.assumed_decompression_throughput_mbps)
                for size in output_bytes
            ],
            output_bytes,
            nodes=run.decompression_nodes,
            cores_per_node=config.cores_per_node,
        ).makespan_s
    return PhaseStep(
        "decompress",
        duration_s=run.timings.decompression_s,
        endpoint=run.destination,
        nodes=run.decompression_nodes,
        detail=dict(run.quality),
    )


def _received_blobs(orch: "OcelotOrchestrator", run: TransferRun) -> List[Tuple[str, bytes]]:
    """``(file name, blob bytes)`` of what the transfer landed."""
    filesystem = orch.testbed.endpoint(run.destination).filesystem
    blobs: List[Tuple[str, bytes]] = []
    for path in run.transfer_paths:
        entry = filesystem.stat(path)
        if entry.data is None or path.endswith("metadata.txt"):
            continue
        if run.mode == "grouped":
            blobs.extend(orch.grouper.unpack(entry.data))
        else:
            blobs.append((path.rsplit("/", 1)[-1].removesuffix(".sz"), entry.data))
    return blobs


#: Phase name -> the function that runs it.
PHASES: Dict[str, Callable[["OcelotOrchestrator", TransferRun], Optional[PhaseStep]]] = {
    "stage": _stage,
    "ship_raw": _ship_raw,
    "plan": _plan,
    "wait": _wait,
    "stream": _stream,
    "compress": _compress,
    "group": _group,
    "transfer": _transfer,
    "decompress": _decompress,
}
