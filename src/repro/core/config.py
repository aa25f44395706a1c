"""Ocelot configuration."""

from __future__ import annotations

import dataclasses
import math
import numbers
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from ..compression.errorbound import ErrorBound, ErrorBoundMode
from ..compression.sz.encoding import ENTROPY_STAGES
from ..errors import ConfigurationError
from ..features.extractor import DEFAULT_SAMPLE_FRACTION

__all__ = ["OcelotConfig", "TransferMode"]

#: Transfer modes matching the paper's Table VIII columns.
#:  * ``direct``      — NP: no compression.
#:  * ``compressed``  — CP: per-file parallel compression.
#:  * ``grouped``     — OP: parallel compression + file grouping.
TransferMode = str
VALID_MODES: Tuple[str, ...] = ("direct", "compressed", "grouped")

#: How compressed data moves over the WAN.
#:  * ``bulk``     — phase-serialised: compress all, transfer all, decode all.
#:  * ``streamed`` — pipeline blocks through a transfer stream as each
#:    finishes encoding, with random-access decode at the destination.
VALID_TRANSFER_MODES: Tuple[str, ...] = ("bulk", "streamed")

#: Content-addressed blob cache modes.
#:  * ``off``       — no cache lookups or writes.
#:  * ``read``      — consult a warm cache, never grow it.
#:  * ``readwrite`` — consult and populate.
VALID_CACHE_MODES: Tuple[str, ...] = ("off", "read", "readwrite")

#: Strict priority classes of the multi-tenant job scheduler, lowest to
#: highest.  A higher class always dispatches before a lower one; fair
#: queueing applies among tenants *within* a class.
VALID_PRIORITIES: Tuple[str, ...] = ("low", "normal", "high")


def priority_class(priority: str) -> int:
    """Numeric rank of a validated priority class (higher dispatches first)."""
    return VALID_PRIORITIES.index(priority)


def _is_count(value: object) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_finite(value: object) -> bool:
    return (
        isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)
    )


#: Each field's type, checked before any value: a per-job override arrives as
#: JSON, and a ``1.5`` node count or a NaN bound must fail at the boundary,
#: not inside a run.  ``None`` is also allowed for the optional fields.
_FIELD_TYPES = (
    ("an integer", _is_count, (
        "compression_nodes", "decompression_nodes", "cores_per_node", "group_world_size",
        "block_size", "block_workers", "stream_window", "cache_max_bytes",
    )),
    ("a finite number", _is_finite, (
        "error_bound", "min_psnr_db", "size_scale",
        "assumed_compression_throughput_mbps", "assumed_decompression_throughput_mbps",
    )),
    ("a bool", lambda value: isinstance(value, bool), (
        "use_prediction", "sentinel_enabled", "verify_error_bound", "adaptive_predictor",
        "shared_codebook",
    )),
)
_OPTIONAL_FIELDS = ("block_size", "cache_max_bytes")


@dataclass
class OcelotConfig:
    """User-facing configuration of an Ocelot transfer.

    Attributes:
        error_bound: error-bound value (interpreted per ``error_bound_mode``).
        error_bound_mode: ``rel`` (value-range relative, paper default) or ``abs``.
        compressor: registry name of the compressor to use.
        mode: default transfer mode (``direct`` / ``compressed`` / ``grouped``).
        use_prediction: when True the quality predictor selects the error
            bound / compressor automatically (Capability 1 of the paper).
        candidate_error_bounds: candidate relative bounds for the planner sweep.
        min_psnr_db: quality floor used by the planner.
        compression_nodes / decompression_nodes: node counts for the
            parallel (de)compression jobs (paper: 16 nodes to compress on
            Anvil, 8 to decompress on Bebop/Cori).
        cores_per_node: cores used per node.
        group_world_size: files per group in grouped mode: the outputs of
            one wave of compression ranks (the paper's strategy).
        sentinel_enabled: transfer raw files while waiting for nodes (only
            for a node wait over ``SENTINEL_WAIT_THRESHOLD_S`` in
            ``core/phases.py``).
        verify_error_bound: check each reconstruction against the bound
            where it is made, at the destination (bulk and streamed
            alike); a violation fails the job.
        block_size: when set, each file is partitioned into blocks of this
            edge length (per axis) and the blocks are compressed
            independently; ``None`` makes each file one block.
        block_workers: local workers used to (de)compress the blocks of
            one file concurrently.  Thread workers only receive blocks of
            at least 131 072 elements (``_POOL_GRAIN_ELEMENTS`` in
            ``compression/sz/pipeline.py``: a 64^3 block qualifies, a 32^3
            one does not); smaller blocks run inline because the GIL
            hand-offs cost more than the overlap wins.  The process's one
            helper lane (``ParallelExecutor.lane``: deflate, inflate,
            digests and the destination's check) runs whatever this is.
            The rule lives in ``PredictionPipelineCompressor._map_blocks``.
        worker_backend: vestigial — block workers are threads and
            ``"thread"`` is the only value accepted (the process backend
            was removed; ``bench/workloads.py`` still passes the field,
            so it goes in the next benchmark-only PR).
        adaptive_predictor: per-block SZ3-style predictor selection
            (Lorenzo vs. interpolation per block, ranked on a size
            statistic of their quantisation codes; the winner alone is
            encoded).  The predictor is the only per-block decision.
        entropy_stage: entropy codec override for pipeline compressors —
            ``huffman``, ``rans`` (interleaved range ANS) or ``none``
            (bypass).  ``None`` keeps each pipeline's registered default.
            Every block is coded with this stage (a rANS block whose
            alphabet cannot fit a 12-bit table degrades to Huffman,
            recorded in its section tag); with per-block models Huffman
            usually writes the fewer bytes after deflate.
        shared_codebook: in blocked entropy-coded mode, build one entropy
            model per file (a Huffman codebook or rANS frequency table,
            pooled across blocks) and store it once in the blob header
            instead of once per block.  Pooled from every block, it covers
            each of them; a rANS alphabet too wide for one table leaves
            every block its own model.
        transfer_mode: ``bulk`` keeps the phase-serialised baseline;
            ``streamed`` ships each block as it finishes encoding and
            decodes blocks as they arrive (compressed mode only).
        stream_window: bounded in-flight window of the streamed pipeline —
            the maximum number of blocks encoded but not yet fully
            received before the producers stall.
        cache_dir: directory of the content-addressed blob cache
            shared across jobs and tenants; required whenever
            ``cache_mode`` is not ``off``.
        cache_mode: ``off`` (default) disables caching, ``read`` consults
            a warm cache without growing it, ``readwrite`` populates it.
        cache_max_bytes: size cap of the cache directory; exceeding it
            evicts least-recently-used entries after each store.  ``None``
            leaves the cache unbounded.  Each open handle (one per job)
            walks the tree once and then accounts for its own writes, so
            with several handles writing at once the cap may be overshot
            by what the others wrote since this handle's scan, until the
            next handle opens.
        tenant: default tenant jobs submitted under this configuration
            belong to (a :class:`~repro.service.spec.TransferSpec` may
            name its own).  Tenants are the unit of fair queueing in
            the job scheduler.
        priority: default scheduler priority class (``low`` / ``normal``
            / ``high``); higher classes dispatch strictly before lower
            ones.
        size_scale: factor from a field's in-memory bytes to the bytes it
            stands for on the cluster; every staged, compressed, shipped
            and reconstructed size is multiplied by it.
        assumed_compression_throughput_mbps /
        assumed_decompression_throughput_mbps: per-core rate (MB/s of
            uncompressed data) of the native compressor the cluster runs.
            A compute task costs its nominal bytes at this rate
            (:meth:`simulated_compute_s`); this host's wall time is never
            billed, so a report is the same in any process.
    """

    error_bound: float = 1e-3
    error_bound_mode: str = "rel"
    compressor: str = "sz3-fast"
    mode: TransferMode = "grouped"
    use_prediction: bool = False
    candidate_error_bounds: Sequence[float] = (1e-5, 1e-4, 1e-3, 1e-2)
    min_psnr_db: float = 60.0
    compression_nodes: int = 16
    decompression_nodes: int = 8
    cores_per_node: int = 128
    group_world_size: int = 256
    sentinel_enabled: bool = True
    verify_error_bound: bool = False
    block_size: Optional[int] = None
    block_workers: int = 1
    worker_backend: str = "thread"
    adaptive_predictor: bool = False
    entropy_stage: Optional[str] = None
    shared_codebook: bool = True
    transfer_mode: str = "bulk"
    stream_window: int = 8
    cache_dir: Optional[str] = None
    cache_mode: str = "off"
    cache_max_bytes: Optional[int] = None
    tenant: str = "default"
    priority: str = "normal"
    size_scale: float = 1.0
    assumed_compression_throughput_mbps: float = 300.0
    assumed_decompression_throughput_mbps: float = 500.0

    def __post_init__(self) -> None:
        for kind, valid, names in _FIELD_TYPES:
            for name in names:
                value = getattr(self, name)
                if not valid(value) and not (value is None and name in _OPTIONAL_FIELDS):
                    raise ConfigurationError(f"{name} must be {kind}, got {value!r}")
        if not all(_is_finite(bound) and bound > 0 for bound in self.candidate_error_bounds):
            raise ConfigurationError(
                f"candidate_error_bounds must be positive finite numbers, "
                f"got {list(self.candidate_error_bounds)!r}"
            )
        if self.mode not in VALID_MODES:
            raise ConfigurationError(
                f"mode must be one of {VALID_MODES}, got {self.mode!r}"
            )
        if self.error_bound <= 0:
            raise ConfigurationError("error_bound must be positive")
        if self.compression_nodes < 1 or self.decompression_nodes < 1:
            raise ConfigurationError("node counts must be >= 1")
        if self.cores_per_node < 1:
            raise ConfigurationError("cores_per_node must be >= 1")
        if self.group_world_size < 1:
            raise ConfigurationError("group_world_size must be >= 1")
        if self.block_size is not None and self.block_size < 1:
            raise ConfigurationError("block_size must be >= 1 (or None for one block per file)")
        if self.block_workers < 1:
            raise ConfigurationError("block_workers must be >= 1")
        if self.worker_backend != "thread":
            raise ConfigurationError(
                f"worker_backend={self.worker_backend!r}: the process backend was "
                "removed, block workers are threads ('thread' is the only value)"
            )
        if self.adaptive_predictor and not self.block_size:
            raise ConfigurationError(
                "adaptive_predictor requires block_size (per-block selection "
                "only applies in blocked mode)"
            )
        if self.entropy_stage is not None and self.entropy_stage not in ENTROPY_STAGES:
            raise ConfigurationError(
                f"entropy_stage must be one of {ENTROPY_STAGES} (or None "
                f"for the compressor's default), got {self.entropy_stage!r}"
            )
        if self.transfer_mode not in VALID_TRANSFER_MODES:
            raise ConfigurationError(
                f"transfer_mode must be one of {VALID_TRANSFER_MODES}, "
                f"got {self.transfer_mode!r}"
            )
        if self.stream_window < 1:
            raise ConfigurationError("stream_window must be >= 1")
        if self.cache_mode not in VALID_CACHE_MODES:
            raise ConfigurationError(
                f"cache_mode must be one of {VALID_CACHE_MODES}, got {self.cache_mode!r}"
            )
        if self.cache_mode != "off" and not self.cache_dir:
            raise ConfigurationError(
                f"cache_mode={self.cache_mode!r} requires cache_dir"
            )
        if self.cache_max_bytes is not None and self.cache_max_bytes < 1:
            raise ConfigurationError("cache_max_bytes must be >= 1 (or None for unbounded)")
        if not self.tenant or not isinstance(self.tenant, str):
            raise ConfigurationError("tenant must be a non-empty string")
        if self.priority not in VALID_PRIORITIES:
            raise ConfigurationError(
                f"priority must be one of {VALID_PRIORITIES}, got {self.priority!r}"
            )
        if self.size_scale <= 0:
            raise ConfigurationError("size_scale must be positive")
        for name in ("assumed_compression_throughput_mbps", "assumed_decompression_throughput_mbps"):
            if getattr(self, name) <= 0:
                raise ConfigurationError(f"{name} must be a positive number of MB/s")
        # Validate the error-bound mode eagerly.
        ErrorBoundMode.parse(self.error_bound_mode)

    def with_overrides(self, **overrides) -> "OcelotConfig":
        """Return a copy of this configuration with ``overrides`` applied.

        Unknown field names raise :class:`ConfigurationError` instead of
        silently creating attributes, and the copy is re-validated, so a
        per-job override that produces an inconsistent configuration
        fails at request time rather than deep inside a run.
        """
        valid = {f.name for f in dataclasses.fields(self)}
        unknown = sorted(set(overrides) - valid)
        if unknown:
            raise ConfigurationError(
                f"unknown OcelotConfig override(s) {unknown}; valid fields: {sorted(valid)}"
            )
        return dataclasses.replace(self, **overrides)

    def resolved_error_bound(self) -> ErrorBound:
        """Return the configured error bound as an :class:`ErrorBound`."""
        return ErrorBound(value=self.error_bound, mode=ErrorBoundMode.parse(self.error_bound_mode))

    def simulated_compute_s(self, nominal_bytes: float, mbps: float) -> float:
        """Cluster-scale seconds of one compute task: its nominal bytes at
        ``mbps``, the assumed throughput of the task's direction."""
        return nominal_bytes / (mbps * 1e6)

    def simulated_planning_s(self, nbytes: int, candidates: int) -> float:
        """Cluster-scale seconds of a quality-prediction sweep over one field.

        The predictor reads a ``DEFAULT_SAMPLE_FRACTION`` sample of the
        field's ``nbytes`` once per candidate configuration; that is billed
        at the compression throughput, like any other pass over the data.
        """
        sampled = math.ceil(nbytes * DEFAULT_SAMPLE_FRACTION) * self.size_scale
        return self.simulated_compute_s(
            candidates * sampled, self.assumed_compression_throughput_mbps
        )
