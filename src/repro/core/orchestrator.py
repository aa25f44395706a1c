"""The Ocelot orchestrator: plan, compress, group, transfer, decompress.

This is the end-to-end flow of Fig. 1/Fig. 2: the dataset lives on the
source endpoint; compute nodes are requested from the source site's
batch scheduler (with the sentinel transferring raw files while the job
waits); the files are compressed in parallel, optionally grouped, moved
over the WAN by the Globus-style transfer service, and decompressed in
parallel at the destination.  Compression and decompression are *really*
performed (on the synthetic data), while cluster-scale timing (node
counts, queue waits, WAN bandwidth) comes from the simulation substrates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Generator, Iterable, List, Optional, Tuple

import numpy as np

from ..cache import array_content_digest, blob_cache_key, build_blob_cache
from ..compression import CompressedBlob, create_blocked_compressor
from ..compression.sz.pipeline import PredictionPipelineCompressor
from ..datasets.base import Field, ScientificDataset
from ..errors import OrchestrationError
from ..faas.service import SiteTable, build_faas_service
from ..prediction.quality_model import QualityPredictor
from ..transfer.testbed import Testbed, build_testbed
from .config import OcelotConfig
from .grouping import FileGrouper
from .parallel import LaneCall, ParallelExecutor
from .phases import MODE_PHASES, PHASES, CompressionOutcome, PhaseStep, TransferRun
from .planner import CompressionPlan, CompressionPlanner
from .reporting import QualityTally, TransferReport

__all__ = ["OcelotOrchestrator", "StagedFile", "PhaseStep"]


@dataclass
class StagedFile:
    """A dataset file staged on the source endpoint."""

    path: str
    field: Field

    size_bytes: int = 0

    def __post_init__(self) -> None:
        if self.size_bytes <= 0:
            self.size_bytes = self.field.nbytes


@dataclass
class _CacheProbe:
    """Blob-cache lookup result for one staged file."""

    file: StagedFile
    digest: str
    key: str
    #: Stored blob bytes on a hit; ``None`` on a miss.
    payload: Optional[bytes] = None


class OcelotOrchestrator:
    """Drive one dataset transfer end to end."""

    def __init__(
        self,
        config: OcelotConfig,
        testbed: Optional[Testbed] = None,
        faas: Optional[SiteTable] = None,
        predictor: Optional[QualityPredictor] = None,
    ) -> None:
        self.config = config
        self.testbed = testbed or build_testbed()
        self.faas = faas or build_faas_service()
        self.planner = CompressionPlanner(config, predictor=predictor)
        self.executor = ParallelExecutor(block_workers=config.block_workers)
        self.grouper = FileGrouper()
        #: Content-addressed blob cache (``None`` when cache_mode is
        #: off).  Instances share the on-disk tree: every job opens its
        #: own handle on ``config.cache_dir``, which is what makes hits
        #: cross-tenant.
        self.blob_cache = build_blob_cache(config)
        #: One compressor per registry name for the whole run, so its
        #: Huffman LUT / rANS table caches outlive a single file.
        self._compressors: Dict[str, PredictionPipelineCompressor] = {}
        #: Suffix appended to the dataset name in every simulated-filesystem
        #: path this run touches (staged files, compressed blobs, groups,
        #: reconstructions).  Empty unless the job service sets it (e.g.
        #: ``"@job-0002"``) because concurrent jobs name the same dataset,
        #: so tenants never clobber each other's artefacts between steps.
        self.artifact_scope: str = ""

    def _scoped(self, dataset_name: str) -> str:
        """Dataset label used for filesystem paths (with tenant scope)."""
        return f"{dataset_name}{self.artifact_scope}"

    # ------------------------------------------------------------------ #
    # Staging
    # ------------------------------------------------------------------ #
    def stage(self, dataset: ScientificDataset, source: str) -> List[StagedFile]:
        """Stage a dataset's files onto the source endpoint's filesystem."""
        endpoint = self.testbed.endpoint(source)
        prefix = f"/data/{self._scoped(dataset.name)}"
        staged: List[StagedFile] = []
        for data_field in dataset:
            path = f"{prefix}/{data_field.filename}"
            size = int(data_field.nbytes * self.config.size_scale)
            if not endpoint.filesystem.exists(path):
                endpoint.filesystem.write(
                    path,
                    size_bytes=size,
                    metadata={"field": data_field.name, "snapshot": str(data_field.snapshot)},
                )
            staged.append(StagedFile(path=path, field=data_field, size_bytes=size))
        if not staged:
            raise OrchestrationError(f"dataset {dataset.name!r} contains no files to stage")
        return staged

    # ------------------------------------------------------------------ #
    # Public entry point
    # ------------------------------------------------------------------ #
    def iter_phases(
        self,
        dataset: ScientificDataset,
        source: str,
        destination: str,
        mode: Optional[str] = None,
    ) -> "Generator[PhaseStep, None, TransferReport]":
        """Transfer ``dataset`` as a generator of resumable phase steps.

        ``mode`` overrides the configured transfer mode for this run
        (``direct`` / ``compressed`` / ``grouped``).  The mode's entry in
        :data:`~repro.core.phases.MODE_PHASES` names the phases; each
        does its real work on the run record, then its
        :class:`PhaseStep` — simulated duration and resources occupied —
        is yielded.  Nothing here moves the simulation clock: the
        :class:`~repro.service.JobScheduler` places the steps on its
        timeline (``Ocelot.transfer_dataset`` and ``OcelotService`` both
        run a transfer through it).

        The run holds no resource between yields — the scheduler's pools
        are where nodes and links are occupied — so a run that fails or
        is closed at a yield leaves nothing to undo.  The generator's
        return value is the finished :class:`TransferReport`.
        """
        mode = mode or self.config.mode
        if mode not in MODE_PHASES:
            raise OrchestrationError(f"unknown transfer mode {mode!r}")
        run = TransferRun(dataset, source, destination, mode)
        for name in MODE_PHASES[mode]:
            step = PHASES[name](self, run)
            if step is not None:
                yield step
        return self._report(run)

    def _report(self, run: TransferRun) -> TransferReport:
        """The one place a run record becomes a :class:`TransferReport`."""
        plan = run.plan
        return TransferReport(
            dataset=run.dataset.name,
            mode=run.mode,
            source=run.source,
            destination=run.destination,
            file_count=len(run.staged),
            total_bytes=run.total_bytes,
            transferred_files=run.shipped_files,
            transferred_bytes=run.shipped_bytes,
            compression_ratio=run.ratio,
            timings=run.timings,
            direct_transfer_s=self.testbed.service.estimate(
                run.source, run.destination, [f.size_bytes for f in run.staged]
            ).duration_s,
            compressor=plan.compressor if plan else "",
            error_bound=plan.error_bound.describe() if plan else "",
            transfer_mode="streamed" if run.streamed else "bulk",
            predicted_quality=plan.predicted.as_dict() if plan and plan.predicted else None,
            measured_psnr_db=run.quality.get("psnr"),
            max_abs_error=run.quality.get("max_abs_error"),
            notes=run.notes,
            # Files probed and not served count as misses whichever way
            # the run then shipped them (both zero with the cache off).
            cache_hits=len(run.hits),
            cache_misses=len(run.probes or ()) - len(run.hits),
            entropy_stage=",".join(run.outcome.entropy_stages),
            block_codecs=dict(run.outcome.block_codecs) or None,
        )

    # ------------------------------------------------------------------ #
    def _build_compressor(self, name: str) -> PredictionPipelineCompressor:
        """This run's compressor for ``name``; built once.

        When ``block_size`` is configured, the pipeline partitions each
        file into independent blocks (otherwise a file is one block) and
        their per-block tasks are dispatched through the executor's block
        thread pool, their deflates and inflates on its helper lane.  Every
        phase of the run that asks for ``name`` (cache probe, compress,
        each streamed file, decompress) shares the one instance.
        """
        compressor = self._compressors.get(name)
        if compressor is None:
            compressor = self._compressors[name] = create_blocked_compressor(
                name,
                block_shape=self.config.block_size,
                adaptive_predictor=self.config.adaptive_predictor,
                block_executor=self.executor.map_blocks,
                shared_codebook=self.config.shared_codebook,
                entropy_stage=self.config.entropy_stage,
                helper_lane=self.executor.lane,
            )
        return compressor

    def _consult_blob_cache(
        self, staged: List[StagedFile], plan: CompressionPlan
    ) -> Optional[List[_CacheProbe]]:
        """Look every staged file up in the whole-blob cache tier.

        Returns ``None`` when caching is off (so the off path never hashes
        a byte), else one :class:`_CacheProbe` per file with the stored
        blob payload attached on a hit.  Each key's fingerprint is the
        configured compressor's own (``cache_fingerprint``).
        """
        cache = self.blob_cache
        if cache is None:
            return None
        compressor = self._build_compressor(plan.compressor)
        lane = self.executor.lane
        digests = lane.gather(
            [lane.submit(array_content_digest, f.field.data, nbytes=f.field.nbytes) for f in staged]
        )
        probes: List[_CacheProbe] = []
        for staged_file, digest in zip(staged, digests):
            data = np.asarray(staged_file.field.data)
            key = blob_cache_key(
                digest, compressor.cache_fingerprint(plan.error_bound.absolute_for(data))
            )
            payload = cache.get_blob(key)
            probes.append(_CacheProbe(file=staged_file, digest=digest, key=key, payload=payload))
        return probes

    def _compress_files(
        self,
        staged: List[StagedFile],
        plan: CompressionPlan,
        probes: Dict[str, _CacheProbe],
    ) -> CompressionOutcome:
        """Compress staged files for real, recording per-file cost.

        Each file's blocks fan out through :meth:`ParallelExecutor.map_blocks`
        (when blocked mode is on); a file's cost is its staged bytes at the
        assumed compression throughput.  With caching on,
        ``probes`` maps each path to its content digest and cache key: they
        are stamped into the blob metadata (so operators can correlate
        blobs with cache entries) and freshly compressed blobs are stored
        back into the whole-blob tier.
        """
        outcome = CompressionOutcome()
        if not staged:
            return outcome
        compressor = self._build_compressor(plan.compressor)
        for staged_file in staged:
            probe = probes.get(staged_file.path)
            result = compressor.compress(staged_file.field.data, plan.error_bound)
            if probe is not None:
                result.blob.metadata["content_digest"] = probe.digest
                result.blob.metadata["cache_key"] = probe.key
            payload = result.blob.to_bytes()
            if probe is not None and self.blob_cache is not None and self.blob_cache.writable:
                self.blob_cache.put_blob(
                    probe.key,
                    payload,
                    meta={
                        "file": staged_file.field.filename,
                        "compressor": plan.compressor,
                        "error_bound": plan.error_bound.describe(),
                        "content_digest": probe.digest,
                    },
                )
            outcome.blobs.append((staged_file.field.filename, payload))
            outcome.per_file_times_s.append(
                self.config.simulated_compute_s(
                    staged_file.size_bytes, self.config.assumed_compression_throughput_mbps
                )
            )
            outcome.per_file_output_bytes.append(int(len(payload) * self.config.size_scale))
            outcome.original_bytes += staged_file.size_bytes
        return outcome

    def _decompress_files(
        self, run: TransferRun, blobs: Iterable[Tuple[str, CompressedBlob]]
    ) -> List[int]:
        """The destination step of both paths, for every blob that crossed.

        Decodes each ``(file name, blob)`` through the bulk reader,
        measures it against its original (checking the bound under
        ``verify_error_bound``: each reconstruction is made once), lands
        ``/decompressed/<scoped>/<name>`` and records the blob's entropy
        stage and, for a multi-block blob, its index entries per codec.
        Sets ``run.quality``; returns each reconstruction's nominal bytes.
        While blob k decodes here, blob k+1's sections inflate on the helper
        lane and file k-1 is measured there; failures surface in file order,
        and a file lands only once its measure (and check) has passed.
        """
        config, outcome = self.config, run.outcome
        filesystem = self.testbed.endpoint(run.destination).filesystem
        originals = {f.field.filename: f.field.data for f in run.staged}
        lane, items = self.executor.lane, iter(blobs)
        tally = QualityTally()
        output_bytes: List[int] = []

        def start_next() -> Optional[Tuple[str, CompressedBlob, Any]]:
            for name, blob in items:  # the next blob, its sections set inflating
                return name, blob, self._build_compressor(blob.compressor).inflate_sections(blob)
            return None

        def decode(name: str, blob: CompressedBlob, inflated: Any) -> Tuple[Any, ...]:
            # Measured on the lane, which then holds the only reference to recon.
            recon = self._build_compressor(blob.compressor).decompress(blob, inflated)
            size, bound = recon.nbytes, blob.error_bound_abs if config.verify_error_bound else None
            check = lane.submit(QualityTally.measure, originals[name], recon, bound, nbytes=size)
            return check, name, blob, int(size * config.size_scale)

        def land(check: LaneCall, name: str, blob: CompressedBlob, size: int) -> None:
            tally.add(*check.result())
            stage = blob.metadata.get("entropy_stage")
            if stage and stage not in outcome.entropy_stages:
                outcome.entropy_stages.append(str(stage))
            if blob.num_blocks > 1:
                for entry in blob.block_index:
                    codec = entry.get("entropy", "none")
                    outcome.block_codecs[codec] = outcome.block_codecs.get(codec, 0) + 1
            filesystem.write(
                f"/decompressed/{self._scoped(run.dataset.name)}/{name}", size_bytes=size
            )
            output_bytes.append(size)

        # A blob starts here, boxed in a call so its failure is raised at its own turn.
        upcoming, behind = LaneCall(start_next, ()), None
        try:
            while (current := upcoming.result()) is not None:
                upcoming = LaneCall(start_next, ())
                upcoming.run()
                decoded = decode(*current)
                if behind is not None:
                    land(*behind)
                behind = decoded
            if behind is not None:
                land(*behind)
        except BaseException:
            if behind is not None:
                behind[0].result()  # an earlier file's failure is the one raised
            raise
        run.quality = tally.summary()
        return output_bytes
