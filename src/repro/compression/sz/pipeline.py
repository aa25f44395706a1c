"""Composable prediction-based compression pipeline.

This mirrors the modular structure of SZ3 that the paper highlights: a
*predictor* stage (Lorenzo / regression / interpolation), a *quantiser*
(inside the predictors), an *entropy* stage (Huffman, interleaved rANS,
or bypass) and a final *lossless* dictionary stage (deflate / LZ77 /
none).  Different combinations form the different "compression
pipelines" evaluated in the paper.

Every block records the codec that entropy-coded it in its section
header (``entropy``) and block-index entry, so decoding dispatches on
what is stored rather than on the reader's configuration: blobs with
mixed per-block codecs — produced when adaptive mode picks the codec
per block, by learned policy or size-estimate heuristic — decode on any
reader.
"""

from __future__ import annotations

import base64
import math
import time
import zlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ...cache.keys import array_content_digest, block_cache_key, pipeline_fingerprint
from ...errors import CompressionError, ConfigurationError
from ...utils.logging import get_logger
from ..blocking import BlockPlan, BlockShapeLike, BlockSpec
from ..encoders.huffman import (
    MAX_CODE_LENGTH,
    HuffmanCodebook,
    HuffmanCodec,
    symbol_frequencies,
)
from ..encoders.lossless import LosslessBackend, get_lossless_backend
from ..encoders.rans import RansCodec, RansFrequencyTable
from ..interface import CompressedBlob, Compressor, SectionContainer
from ..predictors import create_predictor
from ..predictors.base import Predictor, PredictorOutput
from ..predictors.interpolation import InterpolationPredictor
from ..predictors.lorenzo import LorenzoPredictor

__all__ = ["PipelineConfig", "PredictionPipelineCompressor"]

_ENTROPY_STAGES = ("huffman", "rans", "none")

#: Stages that actually entropy-code the symbol stream (and can thus
#: participate in shared per-file codebooks / per-block codec choice).
_ENTROPY_CODED = ("huffman", "rans")

#: A file-wide entropy model: a Huffman codebook or a rANS frequency
#: table, depending on the pipeline's configured stage.
SharedBook = Any

#: A callable mapping per-block work over a collection of items; the
#: orchestrator injects :meth:`repro.core.parallel.ParallelExecutor.map_blocks`
#: here so blocks of one file compress/decompress concurrently.  When the
#: injected mapper is a *bound method* of a process-backed executor, the
#: blocked compress path upgrades itself to the executor's process pool
#: (see :meth:`PredictionPipelineCompressor._encode_blocks_process`).
BlockMapper = Callable[[Callable[[Any], Any], Sequence[Any]], List[Any]]

#: Fewest elements a block must hold for the thread fan-out to pay.  A
#: block task is a chain of NumPy calls that each release and retake the
#: GIL; on small blocks those hand-offs cost more than the overlap wins
#: (through a 2-thread pool Miranda fields compress 26-42 % *slower* at
#: 32^3 = 32 768 elements, level at 48^3, 9 % faster at 64^3 = 262 144 —
#: table in ARCHITECTURE.md, "Parallel execution"), so blocks below the
#: grain run inline whatever ``block_workers`` says.
_POOL_GRAIN_ELEMENTS = 1 << 17


# ---------------------------------------------------------------------- #
# Process-pool block workers
#
# Worker processes cannot receive closures, so the process-backed encode
# path ships an explicit payload (codec configuration + a descriptor of
# the input array) through the pool initializer and exposes its per-block
# work as the module-level functions below.  Each worker rebuilds the
# pipeline once — fresh Huffman codec, fresh lossless backend — and maps
# the input array either from POSIX shared memory (one copy serves every
# worker) or from pickled bytes when shared memory is unavailable.
# ---------------------------------------------------------------------- #

#: One cached ``(payload, pipeline, array, plan, shm)`` tuple per worker.
#: Pools live for a single compress call, so a single slot suffices; the
#: identity check guards against a (fork-inherited) stale entry.
_WORKER_STATE: Optional[tuple] = None


def _attach_payload_array(payload: Dict[str, Any]):
    """Materialise the input array described by ``payload`` in a worker."""
    shape = tuple(payload["shape"])
    dtype = np.dtype(payload["dtype"])
    if payload.get("shm_name"):
        from multiprocessing import resource_tracker, shared_memory

        # The parent owns the segment's lifetime.  Attaching would
        # normally *register* it with the resource tracker too, and since
        # forked workers share the parent's tracker (its cache is a set),
        # any worker exiting would unlink the segment under everyone
        # else.  Python 3.13 grew ``track=False`` for exactly this; on
        # older versions the registration is suppressed by hand.
        original_register = resource_tracker.register

        def _skip_shm(name: str, rtype: str) -> None:
            if rtype != "shared_memory":
                original_register(name, rtype)

        resource_tracker.register = _skip_shm
        try:
            shm = shared_memory.SharedMemory(name=payload["shm_name"])
        finally:
            resource_tracker.register = original_register
        return np.ndarray(shape, dtype=dtype, buffer=shm.buf), shm
    return np.frombuffer(payload["raw"], dtype=dtype).reshape(shape), None


def _block_worker_state(payload: Dict[str, Any]):
    global _WORKER_STATE
    if _WORKER_STATE is None or _WORKER_STATE[0] is not payload:
        pipeline = PredictionPipelineCompressor(
            payload["predictor"],
            config=payload["config"],
            name=payload["name"],
            block_shape=payload["block_shape"],
            adaptive_predictor=payload["adaptive_predictor"],
            adaptive_entropy=payload["adaptive_entropy"],
            shared_codebook=payload["shared_codebook"],
        )
        arr, shm = _attach_payload_array(payload)
        plan = BlockPlan.partition(arr.shape, payload["block_shape"])
        _WORKER_STATE = (payload, pipeline, arr, plan, shm)
    _, pipeline, arr, plan, _ = _WORKER_STATE
    return pipeline, arr, plan


def _encode_block_worker(payload: Dict[str, Any], spec: BlockSpec):
    """Per-block-codebook mode: fully encode one block in a worker."""
    pipeline, arr, plan = _block_worker_state(payload)
    return pipeline.encode_one_block(arr, plan, spec, payload["error_bound_abs"])


def _choose_block_worker(payload: Dict[str, Any], spec: BlockSpec):
    """Shared-codebook phase A: predictor selection + quantisation only."""
    pipeline, arr, plan = _block_worker_state(payload)
    name, encoding, _, _ = pipeline._choose_block_encoding(
        plan.extract(arr, spec), payload["error_bound_abs"]
    )
    return name, encoding


def _finish_block_worker(payload: Dict[str, Any], task: tuple):
    """Shared-codebook phase B: serialise one encoding against the book."""
    spec, name, encoding, book_bytes = task
    pipeline, _, _ = _block_worker_state(payload)
    book = pipeline._shared_book_from_bytes(book_bytes)
    inner, used_shared, codec = pipeline._serialize_encoding_ex(encoding, book)
    return (
        pipeline._block_entry(spec, name, used_shared, codec),
        pipeline._lossless.compress(inner),
    )


@dataclass
class PipelineConfig:
    """Configuration of a prediction-based pipeline."""

    entropy_stage: str = "huffman"
    lossless_backend: str = "deflate"
    lossless_options: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.entropy_stage not in _ENTROPY_STAGES:
            raise ConfigurationError(
                f"entropy stage must be one of {_ENTROPY_STAGES}, got {self.entropy_stage!r}"
            )


class PredictionPipelineCompressor(Compressor):
    """A full predictor → quantiser → entropy → lossless pipeline."""

    name = "prediction-pipeline"

    def __init__(
        self,
        predictor: Predictor,
        config: Optional[PipelineConfig] = None,
        name: Optional[str] = None,
        block_shape: Optional[BlockShapeLike] = None,
        adaptive_predictor: bool = False,
        block_executor: Optional[BlockMapper] = None,
        block_policy: Optional[Any] = None,
        shared_codebook: bool = True,
        block_cache: Optional[Any] = None,
        block_cache_tag: str = "",
        adaptive_entropy: Optional[bool] = None,
    ) -> None:
        self.predictor = predictor
        self.config = config or PipelineConfig()
        if name:
            self.name = name
        self.block_shape = block_shape
        self.adaptive_predictor = bool(adaptive_predictor)
        #: Per-block entropy-codec choice (huffman vs rANS, picked by the
        #: learned policy or a size-estimate heuristic).  ``None`` means
        #: "follow adaptive_predictor"; it only engages when per-block
        #: codebooks are in use — a shared-codebook blob is committed to
        #: the configured stage's file-wide model.
        self.adaptive_entropy = adaptive_entropy if adaptive_entropy is None else bool(adaptive_entropy)
        self.block_executor = block_executor
        #: Optional :class:`~repro.cache.BlobCache` whose block tier
        #: dedups identical blocks across files/jobs/tenants.  Only
        #: *self-contained* payloads (per-block codebooks or no entropy
        #: stage) are cached — a block encoded against one file's shared
        #: codebook is not decodable inside another blob.
        self.block_cache = block_cache
        #: Extra config folded into block cache keys (e.g. the learned
        #: block-policy path, which the pipeline cannot observe itself).
        self.block_cache_tag = str(block_cache_tag or "")
        #: Optional learned per-block predictor-selection policy (a
        #: :class:`repro.prediction.block_policy.BlockPolicy`); when set,
        #: adaptive mode consults it instead of brute-forcing every
        #: candidate predictor per block.
        self.block_policy = block_policy
        #: Blocked + Huffman mode: build one codebook per *file* from the
        #: frequencies across all blocks, store it once in the blob
        #: header, and encode every block against it (per-block codebooks
        #: remain the fallback for blocks whose alphabet escapes it).
        self.shared_codebook = bool(shared_codebook)
        #: Opt-in per-stage encode timing (predict+quantize / entropy /
        #: lossless).  A debugging aid for hot-spot attribution (surfaced
        #: by ``ocelot inspect`` / ``ocelot compress --stage-timings``):
        #: collection forces the thread path — worker processes cannot
        #: cheaply report wall time back — and stamps the totals into the
        #: blob's metadata, so it is off by default to keep blobs
        #: byte-reproducible across runs and backends.
        self.collect_stage_timings = False
        #: Stage totals of the most recent :meth:`compress_array` call
        #: (``None`` until one runs with collection enabled).
        self.last_stage_timings: Optional[Dict[str, float]] = None
        #: Block-dedup outcome of the most recent blocked compress:
        #: ``{"total_blocks", "distinct_blocks", "aliased_blocks"}``.
        self.last_dedup_stats: Optional[Dict[str, int]] = None
        self._stage_events: List[Tuple[str, float]] = []
        self._huffman = HuffmanCodec()
        self._rans = RansCodec()
        self._lossless: LosslessBackend = get_lossless_backend(
            self.config.lossless_backend, **self.config.lossless_options
        )

    def configure_blocks(
        self,
        block_shape: Optional[BlockShapeLike] = None,
        adaptive_predictor: Optional[bool] = None,
        block_executor: Optional[BlockMapper] = None,
        block_policy: Optional[Any] = None,
        shared_codebook: Optional[bool] = None,
        block_cache: Optional[Any] = None,
        block_cache_tag: Optional[str] = None,
        adaptive_entropy: Optional[bool] = None,
    ) -> "PredictionPipelineCompressor":
        """Switch this pipeline into (or re-tune) blocked mode.

        Returns ``self`` so callers can chain off a registry factory.
        """
        if block_shape is not None:
            self.block_shape = block_shape
        if adaptive_predictor is not None:
            self.adaptive_predictor = bool(adaptive_predictor)
        if adaptive_entropy is not None:
            self.adaptive_entropy = bool(adaptive_entropy)
        if block_executor is not None:
            self.block_executor = block_executor
        if block_policy is not None:
            self.block_policy = block_policy
        if shared_codebook is not None:
            self.shared_codebook = bool(shared_codebook)
        if block_cache is not None:
            self.block_cache = block_cache
        if block_cache_tag is not None:
            self.block_cache_tag = str(block_cache_tag)
        return self

    # ------------------------------------------------------------------ #
    # Compressor interface
    # ------------------------------------------------------------------ #
    def compress_array(self, data: np.ndarray, error_bound_abs: float) -> CompressedBlob:
        arr = np.asarray(data)
        if self.collect_stage_timings:
            self._stage_events = []
            self.last_stage_timings = None
        if self.block_shape is not None and arr.ndim > 0:
            blob = self._compress_blocked(arr, error_bound_abs)
        else:
            blob = self._compress_whole(arr, error_bound_abs)
        if self.collect_stage_timings:
            self.last_stage_timings = self._finalize_stage_timings()
            blob.metadata["stage_timings"] = dict(self.last_stage_timings)
        return blob

    def _compress_whole(self, arr: np.ndarray, error_bound_abs: float) -> CompressedBlob:
        dtype = str(arr.dtype)
        start = time.perf_counter()
        encoding = self.predictor.encode(arr, error_bound_abs)
        if self.collect_stage_timings:
            self._stage_events.append(("predict_quantize_s", time.perf_counter() - start))
        inner = self._serialize_encoding(encoding)
        payload = self._compress_lossless(inner)
        outer = SectionContainer(
            header={
                "predictor": self.predictor.name,
                "entropy_stage": self.config.entropy_stage,
                "lossless_backend": self._lossless.name,
            }
        )
        outer.add_section("payload", payload)
        return CompressedBlob(
            compressor=self.name,
            shape=arr.shape,
            dtype=dtype,
            error_bound_abs=error_bound_abs,
            container=outer,
            metadata={
                "predictor": self.predictor.name,
                "entropy_stage": self.config.entropy_stage,
            },
        )

    def decompress_blob(self, blob: CompressedBlob) -> np.ndarray:
        if blob.is_blocked:
            return self._decompress_blocked(blob)
        payload = blob.container.get_section("payload")
        backend = self._backend_for(blob)
        inner_bytes = backend.decompress(payload)
        inner = SectionContainer.from_bytes(inner_bytes)
        codes, mask, literals, aux, meta = self._deserialize_encoding(inner)
        recon = self.predictor.decode(
            codes, mask, literals, aux, meta, blob.shape, blob.error_bound_abs
        )
        return recon.astype(np.dtype(blob.dtype), copy=False)

    def describe(self) -> Dict[str, Any]:
        description = {
            "name": self.name,
            "predictor": self.predictor.describe(),
            "entropy_stage": self.config.entropy_stage,
            "lossless_backend": self.config.lossless_backend,
        }
        if self.block_shape is not None:
            description["block_shape"] = self.block_shape
            description["adaptive_predictor"] = self.adaptive_predictor
            description["adaptive_entropy"] = self._entropy_choice_active()
            description["shared_codebook"] = self._shared_codebook_active()
            description["block_fanout"] = self._configured_fanout()
        return description

    # ------------------------------------------------------------------ #
    # Blocked mode (blob format v2)
    # ------------------------------------------------------------------ #
    def _configured_fanout(self) -> str:
        """The fan-out of the configured block shape, for :meth:`describe`.

        An integer block size applies per axis and the rank is only known
        at compress time, so below the grain it reads ``"pool at rank >=
        k"`` (lower-rank data runs inline) rather than guessing a rank.
        """
        shape = self.block_shape
        if not isinstance(shape, (int, np.integer)):
            return self._block_fanout(math.prod(shape))
        if self.block_executor is None or shape < 2:
            return "inline"
        rank = 1
        while int(shape) ** rank < _POOL_GRAIN_ELEMENTS:
            rank += 1
        return "pool" if rank == 1 else f"pool at rank >= {rank}"

    def _block_fanout(self, block_elements: int) -> str:
        """``"pool"`` when blocks this large go to ``block_executor``."""
        if self.block_executor is not None and block_elements >= _POOL_GRAIN_ELEMENTS:
            return "pool"
        return "inline"

    def _map_blocks(
        self, func: Callable[[Any], Any], items: Sequence[Any], block_elements: int
    ) -> List[Any]:
        """Run ``func`` over per-block ``items``; ``block_elements`` sizes a block."""
        if len(items) > 1 and self._block_fanout(block_elements) == "pool":
            return list(self.block_executor(func, items))
        return [func(item) for item in items]

    # ------------------------------------------------------------------ #
    # Per-stage encode timing (opt-in)
    # ------------------------------------------------------------------ #
    _STAGE_KEYS = ("predict_quantize_s", "entropy_s", "lossless_s")

    def _timed_encode_block(
        self, predictor: Predictor, block: np.ndarray, error_bound_abs: float
    ) -> PredictorOutput:
        """``predictor.encode_block`` attributed to predict+quantize."""
        if not self.collect_stage_timings:
            return predictor.encode_block(block, error_bound_abs)
        start = time.perf_counter()
        encoding = predictor.encode_block(block, error_bound_abs)
        self._stage_events.append(("predict_quantize_s", time.perf_counter() - start))
        return encoding

    def _compress_lossless(self, data: bytes) -> bytes:
        """``self._lossless.compress`` attributed to the lossless stage."""
        if not self.collect_stage_timings:
            return self._lossless.compress(data)
        start = time.perf_counter()
        out = self._lossless.compress(data)
        self._stage_events.append(("lossless_s", time.perf_counter() - start))
        return out

    def _finalize_stage_timings(self) -> Dict[str, float]:
        # ``list.append`` is atomic under the GIL, so threaded block
        # workers accumulate events without a lock; summing happens here,
        # once, after the fan-out has drained.
        totals = {key: 0.0 for key in self._STAGE_KEYS}
        for stage, elapsed in self._stage_events:
            totals[stage] += elapsed
        return {key: round(value, 6) for key, value in totals.items()}

    def _backend_for(self, blob: CompressedBlob) -> LosslessBackend:
        backend_name = blob.container.header.get("lossless_backend", self._lossless.name)
        if backend_name == self._lossless.name:
            return self._lossless
        return get_lossless_backend(backend_name)

    def _candidate_predictors(self, block: np.ndarray) -> List[Predictor]:
        """Predictors competing for one block under adaptive selection.

        SZ3-style adaptive selection tries the Lorenzo and interpolation
        predictors per block and keeps whichever compresses smaller; the
        pipeline's own predictor always competes too.  Blocks with
        non-finite values only use Lorenzo, whose literal fallback handles
        them unconditionally.
        """
        if not self.adaptive_predictor:
            return [self.predictor]
        if not np.isfinite(block).all():
            if isinstance(self.predictor, LorenzoPredictor):
                return [self.predictor]
            return [LorenzoPredictor()]
        candidates: List[Predictor] = [self.predictor]
        names = {self.predictor.name}
        if LorenzoPredictor.name not in names:
            candidates.append(LorenzoPredictor())
            names.add(LorenzoPredictor.name)
        if InterpolationPredictor.name not in names:
            candidates.append(InterpolationPredictor())
            names.add(InterpolationPredictor.name)
        return candidates

    def _policy_predictor(self, block: np.ndarray, error_bound_abs: float) -> Optional[Predictor]:
        """Predictor chosen by the learned block policy, if one applies.

        Falls back to ``None`` (brute-force selection) when no policy is
        configured, the block carries non-finite values (only Lorenzo's
        literal escape handles those), or the policy picks a predictor the
        factory cannot rebuild.  A policy that *fails* (bad model file,
        feature mismatch) also falls back, but is warned about once and
        not retried — silently brute-forcing every block would hide that
        the learned path is inactive.
        """
        if self.block_policy is None or not self.adaptive_predictor:
            return None
        if not np.isfinite(block).all():
            return None
        try:
            name = self.block_policy.choose_for_block(
                block, error_bound_abs, compressor=self.name
            )
        except Exception as exc:
            get_logger(__name__).warning(
                "block policy failed (%s: %s); falling back to brute-force "
                "predictor selection for this pipeline",
                type(exc).__name__,
                exc,
            )
            self.block_policy = None
            return None
        if name == self.predictor.name:
            return self.predictor
        try:
            return create_predictor(name, {})
        except CompressionError:
            return None

    def _choose_block_encoding(
        self, block: np.ndarray, error_bound_abs: float
    ) -> Tuple[str, PredictorOutput, Optional[bytes], Optional[str]]:
        """Pick the predictor for one block and return its encoding.

        Returns ``(predictor_name, encoding, payload, codec)`` where
        ``payload`` is the already-serialised (per-block-codebook) bytes
        when the brute-force comparison produced them (``codec`` then
        names the entropy codec that serialisation actually used), else
        ``None``/``None``.
        """
        chosen = self._policy_predictor(block, error_bound_abs)
        if chosen is not None:
            return (
                chosen.name,
                self._timed_encode_block(chosen, block, error_bound_abs),
                None,
                None,
            )
        candidates = self._candidate_predictors(block)
        if len(candidates) == 1:
            predictor = candidates[0]
            return (
                predictor.name,
                self._timed_encode_block(predictor, block, error_bound_abs),
                None,
                None,
            )
        best: Optional[Tuple[str, PredictorOutput, bytes, str]] = None
        for predictor in candidates:
            encoding = self._timed_encode_block(predictor, block, error_bound_abs)
            inner, _, codec = self._serialize_encoding_ex(encoding, None)
            payload = self._compress_lossless(inner)
            if best is None or len(payload) < len(best[2]):
                best = (predictor.name, encoding, payload, codec)
        assert best is not None
        return best

    def _block_entry(
        self, spec: BlockSpec, predictor_name: str, used_shared: bool, codec: str
    ) -> Dict[str, Any]:
        entry = spec.as_dict()
        entry["predictor"] = predictor_name
        entry["section"] = f"block:{spec.block_id}"
        if codec in _ENTROPY_CODED:
            entry["entropy"] = codec
            entry["codebook"] = "shared" if used_shared else "block"
        return entry

    def _entropy_choice_active(self) -> bool:
        """Whether the entropy codec is chosen per block.

        Per-block choice needs per-block entropy models, so it is off
        whenever a shared codebook commits the whole file to one stage
        (and trivially off when the entropy stage is bypassed).  The
        explicit ``adaptive_entropy`` flag wins; unset, the choice rides
        along with adaptive predictor selection.
        """
        if self.config.entropy_stage == "none" or self._shared_codebook_active():
            return False
        if self.adaptive_entropy is not None:
            return self.adaptive_entropy
        return self.adaptive_predictor

    def _entropy_codec_for_block(
        self, block: np.ndarray, codes: np.ndarray, error_bound_abs: float
    ) -> Optional[str]:
        """Entropy codec for one block, or ``None`` for the config default.

        Mirrors predictor selection: the learned block policy decides
        when it has entropy models, otherwise the exact serialised-size
        estimators arbitrate.  rANS bows out (``None`` estimate) when the
        block's alphabet cannot fit a 12-bit frequency table.
        """
        if not self._entropy_choice_active():
            return None
        policy = self.block_policy
        if (
            policy is not None
            and getattr(policy, "chooses_entropy", False)
            and np.isfinite(block).all()
        ):
            try:
                choice = policy.choose_entropy_for_block(
                    block, error_bound_abs, compressor=self.name
                )
            except Exception as exc:
                get_logger(__name__).warning(
                    "block policy entropy choice failed (%s: %s); falling "
                    "back to size-estimate codec selection for this pipeline",
                    type(exc).__name__,
                    exc,
                )
                self.block_policy = None
            else:
                if choice in _ENTROPY_CODED:
                    return choice
        symbols = np.asarray(codes, dtype=np.int64)
        if symbols.size == 0:
            return "huffman"
        rans_size = self._rans.estimate_encoded_bytes(symbols)
        if rans_size is None:
            return "huffman"
        huffman_size = self._huffman.estimate_encoded_bytes(symbols)
        return "rans" if rans_size < huffman_size else "huffman"

    def encode_one_block(
        self,
        arr: np.ndarray,
        plan: BlockPlan,
        spec: BlockSpec,
        error_bound_abs: float,
        shared_book: Optional[SharedBook] = None,
    ) -> Tuple[Dict[str, Any], bytes]:
        """Encode a single block; returns its ``(index_entry, payload)``.

        This is the unit of work both the bulk blocked path and the
        streaming pipeline fan out: predictor selection (learned policy
        first, brute force otherwise), encoding, serialisation and the
        lossless stage for one independent block.  With ``shared_book``
        the block's symbols are entropy-coded against the file-wide
        model; a block whose alphabet escapes it falls back to its own
        per-block model (recorded in the index entry).  In per-block
        mode, adaptive entropy selection may override the configured
        codec block by block.
        """
        block = plan.extract(arr, spec)
        name, encoding, payload, codec = self._choose_block_encoding(block, error_bound_abs)
        used_shared = False
        if shared_book is not None:
            inner, used_shared, codec = self._serialize_encoding_ex(encoding, shared_book)
            payload = self._compress_lossless(inner)
        else:
            choice = self._entropy_codec_for_block(block, encoding.codes, error_bound_abs)
            if payload is None or (choice is not None and choice != codec):
                inner, _, codec = self._serialize_encoding_ex(
                    encoding, None, entropy=choice
                )
                payload = self._compress_lossless(inner)
        assert codec is not None
        return self._block_entry(spec, name, used_shared, codec), payload

    def measure_block_encoding(
        self,
        block: np.ndarray,
        error_bound_abs: float,
        predictor: Predictor,
        entropy_stage: Optional[str] = None,
    ) -> int:
        """Serialised size one candidate predictor achieves on one block.

        Used to label training samples for the learned block policy
        without duplicating the pipeline's serialisation format.  Pass
        ``entropy_stage`` to measure the same encoding under a different
        entropy codec (the policy's codec-selection labels).
        """
        encoding = predictor.encode_block(np.ascontiguousarray(block), error_bound_abs)
        inner, _, _ = self._serialize_encoding_ex(encoding, None, entropy=entropy_stage)
        return len(self._lossless.compress(inner))

    def block_plan(self, arr: np.ndarray) -> BlockPlan:
        """The block partition this pipeline applies to ``arr``."""
        if self.block_shape is None:
            raise CompressionError("pipeline is not in blocked mode")
        return BlockPlan.partition(np.asarray(arr).shape, self.block_shape)

    def blocked_header(
        self,
        arr: np.ndarray,
        plan: BlockPlan,
        error_bound_abs: float,
        shared_book: Optional[SharedBook] = None,
    ) -> Dict[str, Any]:
        """Blob-level header for a v2 blob of ``arr`` (sans block index).

        The streaming pipeline ships this once so the destination can
        assemble the received block sections into a valid blob.  The
        shared entropy model — a Huffman codebook or rANS frequency
        table, when one is in use — rides in this header (base64), so it
        is serialised once per file instead of once per block and
        automatically reaches streamed-block consumers.
        """
        header = {
            "compressor": self.name,
            "shape": list(np.asarray(arr).shape),
            "dtype": str(np.asarray(arr).dtype),
            "error_bound_abs": float(error_bound_abs),
            "predictor": self.predictor.name,
            "entropy_stage": self.config.entropy_stage,
            "lossless_backend": self._lossless.name,
            "block_shape": list(plan.block_shape),
            "metadata": {
                "predictor": self.predictor.name,
                "entropy_stage": self.config.entropy_stage,
                "num_blocks": plan.num_blocks,
                "adaptive_predictor": self.adaptive_predictor,
            },
        }
        book_bytes = self._shared_book_serialized(shared_book)
        if book_bytes is not None:
            # zlib + base64: the codebook/table payloads are mostly zero
            # bytes, and unlike the per-block codebook sections this
            # header field never passes through the lossless stage.
            header["shared_codebook"] = base64.b64encode(
                zlib.compress(book_bytes, 6)
            ).decode("ascii")
        return header

    def _shared_codebook_active(self) -> bool:
        """Whether blocked compression builds a file-wide entropy model."""
        return self.shared_codebook and self.config.entropy_stage in _ENTROPY_CODED

    @staticmethod
    def _shared_book_serialized(shared_book: Optional[SharedBook]) -> Optional[bytes]:
        """Serialised shared model, or ``None`` when absent/empty."""
        if shared_book is None:
            return None
        if isinstance(shared_book, HuffmanCodebook) and not shared_book.lengths:
            return None
        return shared_book.serialize()

    def _build_shared_book(self, frequencies: Dict[int, int]) -> Optional[SharedBook]:
        """File-wide entropy model for the configured stage.

        ``None`` when there is nothing to model — or, for rANS, when the
        pooled alphabet cannot fit a 12-bit frequency table, in which
        case every block falls back to its own per-block model.
        """
        if not frequencies:
            return None
        if self.config.entropy_stage == "rans":
            return RansFrequencyTable.try_from_frequencies(frequencies)
        return HuffmanCodebook.from_frequencies(frequencies, max_length=MAX_CODE_LENGTH)

    def _shared_book_from_bytes(self, data: Optional[bytes]) -> Optional[SharedBook]:
        """Deserialise a shared model for the configured stage."""
        if not data:
            return None
        if self.config.entropy_stage == "rans":
            return RansFrequencyTable.deserialize(data)
        return HuffmanCodebook.deserialize(data)

    def prepare_shared_codebook(
        self,
        arr: np.ndarray,
        plan: BlockPlan,
        error_bound_abs: float,
        max_sample_blocks: int = 8,
    ) -> Optional[SharedBook]:
        """Build a file-wide entropy model from a *sample* of blocks.

        The streaming pipeline must ship the blob header (and with it the
        shared model) before the first block, so it cannot wait for exact
        all-block frequencies the way the bulk path does; instead up to
        ``max_sample_blocks`` evenly spaced blocks are quantised through
        the pipeline's predictor and their pooled symbol frequencies seed
        the model.  Blocks whose alphabet escapes the sampled model fall
        back to per-block codebooks/tables at encode time.
        """
        if not self._shared_codebook_active():
            return None
        specs = list(plan.blocks)
        if len(specs) > max_sample_blocks:
            picks = np.unique(
                np.linspace(0, len(specs) - 1, max_sample_blocks).astype(int)
            )
            specs = [specs[i] for i in picks]
        sampler = self.predictor
        frequencies: Dict[int, int] = {}
        for spec in specs:
            block = plan.extract(arr, spec)
            if not np.isfinite(block).all() and not isinstance(sampler, LorenzoPredictor):
                continue  # only Lorenzo's literal escape handles non-finite data
            encoding = sampler.encode_block(block, error_bound_abs)
            for sym, freq in symbol_frequencies(np.asarray(encoding.codes)).items():
                frequencies[sym] = frequencies.get(sym, 0) + freq
        return self._build_shared_book(frequencies)

    # ------------------------------------------------------------------ #
    # Block dedup: within-blob aliasing + the cross-job block store
    # ------------------------------------------------------------------ #
    def _group_identical_blocks(
        self, arr: np.ndarray, plan: BlockPlan
    ) -> Tuple[List[BlockSpec], Dict[int, int], Dict[int, str], Dict[int, int]]:
        """Group the plan's blocks by raw content.

        Returns ``(reps, alias_of, digests, counts)``: the first
        occurrence of each distinct block (in plan order), a map from
        duplicate block ids to their representative's id, each
        representative's content digest (the block-store key ingredient)
        and its multiplicity.  Only representatives are encoded; the
        multiplicity weights shared-codebook frequency pooling so the
        book stays byte-identical to a no-dedup encoding of the array.
        """
        reps: List[BlockSpec] = []
        alias_of: Dict[int, int] = {}
        digests: Dict[int, str] = {}
        counts: Dict[int, int] = {}
        first_seen: Dict[str, int] = {}
        for spec in plan.blocks:
            digest = array_content_digest(plan.extract(arr, spec))
            rep_id = first_seen.get(digest)
            if rep_id is None:
                first_seen[digest] = spec.block_id
                reps.append(spec)
                digests[spec.block_id] = digest
                counts[spec.block_id] = 1
            else:
                alias_of[spec.block_id] = rep_id
                counts[rep_id] += 1
        return reps, alias_of, digests, counts

    def _expand_aliases(
        self,
        plan: BlockPlan,
        reps: List[BlockSpec],
        rep_results: List[Tuple[Dict[str, Any], bytes]],
        alias_of: Dict[int, int],
    ) -> List[Tuple[Dict[str, Any], bytes]]:
        """Materialise the full block index from representative results.

        Duplicate blocks become *alias entries*: their own geometry, no
        payload, and ``alias_of`` naming the representative whose stored
        section the decoder reads instead.
        """
        if not alias_of:
            return list(rep_results)
        by_id = {spec.block_id: result for spec, result in zip(reps, rep_results)}
        results: List[Tuple[Dict[str, Any], bytes]] = []
        for spec in plan.blocks:
            rep_id = alias_of.get(spec.block_id)
            if rep_id is None:
                results.append(by_id[spec.block_id])
                continue
            rep_entry = by_id[rep_id][0]
            entry = spec.as_dict()
            entry["predictor"] = rep_entry["predictor"]
            entry["section"] = rep_entry["section"]
            entry["alias_of"] = int(rep_id)
            if "entropy" in rep_entry:
                entry["entropy"] = rep_entry["entropy"]
            if "codebook" in rep_entry:
                entry["codebook"] = rep_entry["codebook"]
            results.append((entry, b""))
        return results

    def _block_cache_active(self) -> bool:
        """Whether the cross-job block store applies to this pipeline.

        Only *self-contained* payloads are cached: a block entropy-coded
        against one file's shared codebook is not decodable inside
        another blob, so the store engages when the entropy stage is off
        or per-block codebooks are in use.
        """
        return self.block_cache is not None and not self._shared_codebook_active()

    def _block_cache_key(self, digest: str, error_bound_abs: float) -> str:
        fingerprint = pipeline_fingerprint(
            compressor=self.name,
            error_bound_abs=error_bound_abs,
            codebook_mode="per-block",
            adaptive_predictor=self.adaptive_predictor,
            block_policy=self.block_cache_tag,
            extra={
                "entropy": self.config.entropy_stage,
                "lossless": self._lossless.name,
                # Bumped when the per-block payload layout changes (v2:
                # per-section entropy tags + adaptive codec choice), so
                # entries cached by older builds cannot be served into
                # blobs they would not be byte-identical with.
                "block_format": 2,
            },
        )
        return block_cache_key(digest, fingerprint)

    def _cached_block_result(
        self, spec: BlockSpec, digests: Dict[int, str], error_bound_abs: float
    ) -> Optional[Tuple[Dict[str, Any], bytes]]:
        """Look one representative up in the block store; ``None`` misses."""
        if not self._block_cache_active():
            return None
        found = self.block_cache.get_block(
            self._block_cache_key(digests[spec.block_id], error_bound_abs)
        )
        if found is None:
            return None
        meta, payload = found
        # Rebuild the index entry in the exact key order a fresh encode
        # produces, so cached and freshly compressed blobs stay
        # byte-identical.
        entry = spec.as_dict()
        entry["predictor"] = meta.get("predictor", self.predictor.name)
        entry["section"] = f"block:{spec.block_id}"
        if meta.get("entropy"):
            entry["entropy"] = meta["entropy"]
        if meta.get("codebook"):
            entry["codebook"] = meta["codebook"]
        return entry, payload

    def _store_block_result(
        self,
        spec: BlockSpec,
        digests: Dict[int, str],
        error_bound_abs: float,
        result: Tuple[Dict[str, Any], bytes],
    ) -> None:
        """Offer one freshly encoded representative to the block store."""
        if not self._block_cache_active() or not self.block_cache.writable:
            return
        entry, payload = result
        meta: Dict[str, Any] = {"predictor": entry.get("predictor")}
        if entry.get("entropy"):
            meta["entropy"] = entry["entropy"]
        if entry.get("codebook"):
            meta["codebook"] = entry["codebook"]
        self.block_cache.put_block(
            self._block_cache_key(digests[spec.block_id], error_bound_abs),
            payload,
            meta,
        )

    def _encode_or_reuse_block(
        self,
        arr: np.ndarray,
        plan: BlockPlan,
        spec: BlockSpec,
        error_bound_abs: float,
        digests: Dict[int, str],
    ) -> Tuple[Dict[str, Any], bytes]:
        """``encode_one_block`` fronted by the cross-job block store."""
        cached = self._cached_block_result(spec, digests, error_bound_abs)
        if cached is not None:
            return cached
        result = self.encode_one_block(arr, plan, spec, error_bound_abs)
        self._store_block_result(spec, digests, error_bound_abs, result)
        return result

    def _process_block_executor(self):
        """The process-backed executor behind ``block_executor``, if any.

        The ``BlockMapper`` injection point stays a plain callable, so the
        process capability is discovered from the bound method's owner:
        when the orchestrator injected ``executor.map_blocks`` and that
        executor runs ``worker_backend="process"``, the blocked compress
        path can open its process pool instead.
        """
        owner = getattr(self.block_executor, "__self__", None)
        if owner is None or getattr(owner, "worker_backend", "thread") != "process":
            return None
        if not callable(getattr(owner, "open_block_pool", None)):
            return None
        return owner

    def _build_worker_payload(
        self, arr: np.ndarray, error_bound_abs: float
    ) -> Tuple[Dict[str, Any], Optional[Any]]:
        """``(payload, shm)`` shipping ``arr`` + codec setup to workers.

        The array rides in POSIX shared memory when the host offers it —
        one copy serves every worker — and as pickled bytes otherwise.
        The returned ``shm`` handle (or ``None``) belongs to the caller,
        which must close *and unlink* it once the pool has drained.
        """
        data = np.ascontiguousarray(arr)
        payload: Dict[str, Any] = {
            "predictor": self.predictor,
            "config": self.config,
            "name": self.name,
            "block_shape": self.block_shape,
            "adaptive_predictor": self.adaptive_predictor,
            "adaptive_entropy": self.adaptive_entropy,
            "shared_codebook": self.shared_codebook,
            "shape": tuple(data.shape),
            "dtype": str(data.dtype),
            "error_bound_abs": float(error_bound_abs),
        }
        shm = None
        try:
            from multiprocessing import shared_memory

            shm = shared_memory.SharedMemory(create=True, size=max(1, data.nbytes))
            np.ndarray(data.shape, dtype=data.dtype, buffer=shm.buf)[...] = data
            payload["shm_name"] = shm.name
        except Exception:
            if shm is not None:
                shm.close()
                try:
                    shm.unlink()
                except Exception:
                    pass
                shm = None
            payload["raw"] = data.tobytes()
        return payload, shm

    def _encode_blocks_process(
        self,
        arr: np.ndarray,
        plan: BlockPlan,
        error_bound_abs: float,
        reps: List[BlockSpec],
        digests: Dict[int, str],
        counts: Dict[int, int],
    ) -> Optional[Tuple[Optional[SharedBook], List[Tuple[Dict[str, Any], bytes]]]]:
        """Representative-block encode on a process pool; ``None`` = threads.

        Only engages when the injected block executor is process-backed,
        there is more than one block, and no learned block policy is
        configured (a policy failure mutates pipeline state, which a
        worker process could not report back).  The result is
        byte-identical to the thread path: phase A returns each
        representative's chosen predictor and quantised encoding, the
        parent pools exact symbol frequencies in block order — weighted
        by each representative's multiplicity — into the same shared
        codebook, and phase B serialises every representative against
        it.  Block-store lookups happen parent-side (workers hold no
        cache handle), so only missed representatives are dispatched.
        Any pool failure (broken pool, unpicklable custom predictor, …)
        logs a warning and falls back to threads.
        """
        owner = self._process_block_executor()
        if owner is None or plan.num_blocks < 2 or self.block_policy is not None:
            return None
        if self.collect_stage_timings:
            # Stage attribution needs in-process timers; the thread path
            # provides them at the cost of the GIL, which is the right
            # trade for a debugging run.
            return None
        payload, shm = self._build_worker_payload(arr, error_bound_abs)
        try:
            pool = owner.open_block_pool(payload)
            if pool is None:
                return None
            try:
                specs = list(reps)
                if not self._shared_codebook_active():
                    results: List[Optional[Tuple[Dict[str, Any], bytes]]] = (
                        [None] * len(specs)
                    )
                    pending: List[int] = []
                    for i, spec in enumerate(specs):
                        cached = self._cached_block_result(spec, digests, error_bound_abs)
                        if cached is not None:
                            results[i] = cached
                        else:
                            pending.append(i)
                    if pending:
                        fresh = pool.map(
                            _encode_block_worker, [specs[i] for i in pending]
                        )
                        for i, result in zip(pending, fresh):
                            self._store_block_result(
                                specs[i], digests, error_bound_abs, result
                            )
                            results[i] = result
                    return None, results
                chosen = pool.map(_choose_block_worker, specs)
                frequencies: Dict[int, int] = {}
                for spec, (_, encoding) in zip(specs, chosen):
                    weight = counts[spec.block_id]
                    for sym, freq in symbol_frequencies(np.asarray(encoding.codes)).items():
                        frequencies[sym] = frequencies.get(sym, 0) + freq * weight
                shared_book = self._build_shared_book(frequencies)
                book_bytes = self._shared_book_serialized(shared_book)
                results = pool.map(
                    _finish_block_worker,
                    [
                        (spec, name, encoding, book_bytes)
                        for spec, (name, encoding) in zip(specs, chosen)
                    ],
                )
                return shared_book, results
            finally:
                pool.close()
        except Exception as exc:
            get_logger(__name__).warning(
                "process-pool block compression failed (%s: %s); "
                "falling back to the thread path",
                type(exc).__name__,
                exc,
            )
            return None
        finally:
            if shm is not None:
                shm.close()
                try:
                    shm.unlink()
                except Exception:
                    pass

    def _compress_blocked(self, arr: np.ndarray, error_bound_abs: float) -> CompressedBlob:
        plan = BlockPlan.partition(arr.shape, self.block_shape)
        reps, alias_of, digests, counts = self._group_identical_blocks(arr, plan)
        self.last_dedup_stats = {
            "total_blocks": plan.num_blocks,
            "distinct_blocks": len(reps),
            "aliased_blocks": len(alias_of),
        }
        encoded = self._encode_blocks_process(
            arr, plan, error_bound_abs, reps, digests, counts
        )
        if encoded is not None:
            shared_book, rep_results = encoded
        else:
            shared_book = None
            block_elements = math.prod(plan.block_shape)
            if self._shared_codebook_active():
                # Phase A: choose a predictor and encode every distinct
                # block (in parallel), pooling exact symbol frequencies.
                # Duplicate blocks contribute through their
                # representative's multiplicity weight, which keeps the
                # codebook byte-identical to a no-dedup encoding.
                chosen = self._map_blocks(
                    lambda spec: self._choose_block_encoding(
                        plan.extract(arr, spec), error_bound_abs
                    ),
                    reps,
                    block_elements,
                )
                frequencies: Dict[int, int] = {}
                for spec, (_, encoding, _, _) in zip(reps, chosen):
                    weight = counts[spec.block_id]
                    for sym, freq in symbol_frequencies(
                        np.asarray(encoding.codes)
                    ).items():
                        frequencies[sym] = frequencies.get(sym, 0) + freq * weight
                shared_book = self._build_shared_book(frequencies)

                # Phase B: serialise each representative against the book.
                def finish(item: Tuple[BlockSpec, Tuple[str, PredictorOutput, Any, Any]]):
                    spec, (name, encoding, _, _) = item
                    inner, used_shared, codec = self._serialize_encoding_ex(
                        encoding, shared_book
                    )
                    return (
                        self._block_entry(spec, name, used_shared, codec),
                        self._compress_lossless(inner),
                    )

                rep_results = self._map_blocks(
                    finish, list(zip(reps, chosen)), block_elements
                )
            else:
                rep_results = self._map_blocks(
                    lambda spec: self._encode_or_reuse_block(
                        arr, plan, spec, error_bound_abs, digests
                    ),
                    reps,
                    block_elements,
                )
        header = self.blocked_header(arr, plan, error_bound_abs, shared_book=shared_book)
        results = self._expand_aliases(plan, reps, rep_results, alias_of)
        codec_counts: Dict[str, int] = {}
        for entry, _ in results:
            codec = entry.get("entropy", "none")
            codec_counts[codec] = codec_counts.get(codec, 0) + 1
        header["metadata"]["block_codecs"] = {
            codec: codec_counts[codec] for codec in sorted(codec_counts)
        }
        return CompressedBlob.assemble(header, results)

    def _predictor_for(self, name: str, meta: Dict[str, Any]) -> Predictor:
        # Rebuild the predictor from the block's recorded meta rather than
        # assuming this pipeline's own instance matches: the encoder may
        # have used different parameters (regression window, interpolation
        # order, bin radius) than the decoding side's registry default.
        try:
            return create_predictor(name, meta)
        except CompressionError:
            if name == self.predictor.name:
                # Custom predictor unknown to the factory; the pipeline's
                # own instance is the only candidate.
                return self.predictor
            raise

    def _decode_block_entry(
        self,
        blob: CompressedBlob,
        entry: Dict[str, Any],
        spec: BlockSpec,
        backend: LosslessBackend,
    ) -> np.ndarray:
        """Decode one block section of ``blob`` into its reconstruction."""
        inner_bytes = backend.decompress(blob.container.get_section(entry["section"]))
        inner = SectionContainer.from_bytes(inner_bytes)
        codes, mask, literals, aux, meta = self._deserialize_encoding(
            inner, shared_codebook=blob.shared_codebook_bytes
        )
        predictor = self._predictor_for(entry["predictor"], meta)
        return predictor.decode_block(
            codes, mask, literals, aux, meta, spec.shape, blob.error_bound_abs
        )

    def decompress_block(self, blob: CompressedBlob, block_id: int) -> np.ndarray:
        """Random-access decode of a single block of a v2 blob.

        Only the requested ``block:<id>`` section is read — on a lazily
        parsed blob the other block payloads are never materialised, so
        the cost is proportional to one block regardless of blob size.
        """
        if not blob.is_blocked:
            raise CompressionError("random-access decode requires a blocked (v2) blob")
        entry = blob.block_entry(block_id)
        backend = self._backend_for(blob)
        recon = self._decode_block_entry(
            blob, entry, BlockSpec.from_dict(entry), backend
        )
        return recon.astype(np.dtype(blob.dtype), copy=False)

    def _decompress_blocked(self, blob: CompressedBlob) -> np.ndarray:
        backend = self._backend_for(blob)
        out = np.empty(blob.shape, dtype=np.float64)
        # Alias entries point at their representative's section; memoising
        # per section decodes each distinct payload once however many
        # blocks share it.  Dict get/set are atomic under the GIL and a
        # racy duplicate decode is merely redundant work, so the threaded
        # fan-out needs no lock.
        decoded: Dict[str, np.ndarray] = {}

        def decode_block(item: Tuple[Dict[str, Any], BlockSpec]) -> None:
            entry, spec = item
            recon = decoded.get(entry["section"])
            if recon is None:
                recon = self._decode_block_entry(blob, entry, spec, backend)
                decoded[entry["section"]] = recon
            # Each block writes a disjoint region of the output, so the
            # per-block tasks can run concurrently without locking.
            out[spec.slices()] = recon

        index = blob.block_index
        if not index:
            raise CompressionError("blocked blob is missing its block index")
        specs = [BlockSpec.from_dict(entry) for entry in index]
        self._map_blocks(
            decode_block,
            list(zip(index, specs)),
            max(spec.num_elements for spec in specs),
        )
        return out.astype(np.dtype(blob.dtype), copy=False)

    # ------------------------------------------------------------------ #
    # Encoding serialisation
    # ------------------------------------------------------------------ #
    def _serialize_encoding(self, encoding: PredictorOutput) -> bytes:
        data, _, _ = self._serialize_encoding_ex(encoding, None)
        return data

    def _serialize_encoding_ex(
        self,
        encoding: PredictorOutput,
        shared_book: Optional[SharedBook],
        entropy: Optional[str] = None,
    ) -> Tuple[bytes, bool, str]:
        """Serialise one encoding; returns ``(bytes, used_shared, codec)``.

        ``codec`` is the entropy codec the stream was *actually* written
        with (``huffman`` / ``rans`` / ``none``) — also recorded in the
        section header's ``entropy`` key, which is what decode dispatches
        on.  ``entropy`` overrides the configured stage for this one
        encoding (the per-block codec choice); a ``rans`` request whose
        alphabet cannot fit a 12-bit table degrades to Huffman.

        With ``shared_book`` the symbol stream is entropy-coded against
        the file-wide model and **no** per-block codebook/table section
        is written — the model lives once in the blob header.  A block
        whose alphabet escapes the shared model falls back to its own.
        """
        stage = entropy if entropy is not None else self.config.entropy_stage
        inner = SectionContainer(header={"predictor_meta": encoding.meta})
        codes = np.asarray(encoding.codes, dtype=np.int64)
        inner.header["num_codes"] = int(codes.size)
        used_shared = False
        codec = "none"
        if stage in _ENTROPY_CODED and codes.size:
            start = time.perf_counter() if self.collect_stage_timings else 0.0
            if stage == "rans":
                payload = None
                if isinstance(shared_book, RansFrequencyTable):
                    payload = self._rans.encode_with_table(codes, shared_book)
                if payload is not None:
                    used_shared = True
                    codec = "rans"
                    inner.header["entropy"] = "rans"
                    inner.header["rans_count"] = int(codes.size)
                    inner.header["rans_shared"] = True
                    inner.add_section("codes_payload", payload)
                else:
                    table = RansFrequencyTable.try_from_frequencies(
                        symbol_frequencies(codes)
                    )
                    if table is None:
                        # Alphabet too wide for a 12-bit frequency table;
                        # this block degrades to Huffman (its entropy tag
                        # records what was written, so it still decodes).
                        stage = "huffman"
                    else:
                        payload = self._rans.encode_with_table(codes, table)
                        if payload is None:  # pragma: no cover - own table
                            raise CompressionError(
                                "rANS escape against the block's own table"
                            )
                        codec = "rans"
                        inner.header["entropy"] = "rans"
                        inner.header["rans_count"] = int(codes.size)
                        inner.add_section("codes_payload", payload)
                        inner.add_section("codes_freqs", table.serialize())
            if stage == "huffman":
                payload = None
                if isinstance(shared_book, HuffmanCodebook):
                    payload = self._huffman.encode_with_book(codes, shared_book)
                if payload is not None:
                    used_shared = True
                    codec = "huffman"
                    inner.header["entropy"] = "huffman"
                    inner.header["huffman_count"] = int(codes.size)
                    inner.header["huffman_shared"] = True
                    inner.add_section("codes_payload", payload)
                else:
                    payload, codebook, count = self._huffman.encode(codes)
                    codec = "huffman"
                    inner.header["entropy"] = "huffman"
                    inner.header["huffman_count"] = count
                    inner.add_section("codes_payload", payload)
                    inner.add_section("codes_codebook", codebook)
            if self.collect_stage_timings:
                self._stage_events.append(("entropy_s", time.perf_counter() - start))
        else:
            inner.header["huffman_count"] = -1
            inner.add_array("codes_raw", self._pack_codes(codes))
        mask = np.asarray(encoding.unpredictable_mask, dtype=bool)
        escape_indices = np.flatnonzero(mask).astype(np.int64)
        inner.add_array("escape_indices", escape_indices)
        inner.add_array("literals", np.asarray(encoding.literals, dtype=np.float64))
        inner.header["aux_names"] = sorted(encoding.aux)
        for aux_name in sorted(encoding.aux):
            inner.add_array(f"aux_{aux_name}", np.asarray(encoding.aux[aux_name]))
        return inner.to_bytes(), used_shared, codec

    def _deserialize_encoding(
        self, inner: SectionContainer, shared_codebook: Optional[bytes] = None
    ):
        header = inner.header
        meta = header.get("predictor_meta", {})
        num_codes = int(header.get("num_codes", 0))
        # Dispatch on the codec the section was written with, not on this
        # pipeline's configuration — mixed-codec blobs and readers with a
        # different configured stage both decode correctly.  Pre-rANS
        # blobs carry no ``entropy`` key, only ``huffman_count``.
        entropy = header.get("entropy")
        if entropy is None and int(header.get("huffman_count", -1)) >= 0:
            entropy = "huffman"
        if entropy == "rans":
            payload = inner.get_section("codes_payload")
            if header.get("rans_shared"):
                if shared_codebook is None:
                    raise CompressionError(
                        "block was encoded with a shared frequency table, "
                        "but the blob header carries none"
                    )
                table_bytes = shared_codebook
            else:
                table_bytes = inner.get_section("codes_freqs")
            codes = self._rans.decode(payload, table_bytes, int(header["rans_count"]))
        elif entropy == "huffman":
            payload = inner.get_section("codes_payload")
            if header.get("huffman_shared"):
                if shared_codebook is None:
                    raise CompressionError(
                        "block was encoded with a shared codebook, but the "
                        "blob header carries none"
                    )
                codebook = shared_codebook
            else:
                codebook = inner.get_section("codes_codebook")
            codes = self._huffman.decode(payload, codebook, int(header["huffman_count"]))
        else:
            codes = self._unpack_codes(inner.get_array("codes_raw"), num_codes)
        escape_indices = inner.get_array("escape_indices")
        mask = np.zeros(num_codes, dtype=bool)
        if escape_indices.size:
            mask[escape_indices] = True
        literals = inner.get_array("literals")
        aux = {
            name: inner.get_array(f"aux_{name}") for name in header.get("aux_names", [])
        }
        return codes, mask, literals, aux, meta

    @staticmethod
    def _pack_codes(codes: np.ndarray) -> np.ndarray:
        """Store raw codes with the narrowest integer dtype that fits."""
        if codes.size == 0:
            return codes.astype(np.int8)
        lo = int(codes.min())
        hi = int(codes.max())
        for dtype in (np.int8, np.int16, np.int32, np.int64):
            info = np.iinfo(dtype)
            if lo >= info.min and hi <= info.max:
                return codes.astype(dtype)
        return codes

    @staticmethod
    def _unpack_codes(raw: np.ndarray, num_codes: int) -> np.ndarray:
        codes = np.asarray(raw, dtype=np.int64)
        if codes.size != num_codes:
            raise CompressionError(
                f"raw code stream has {codes.size} entries, expected {num_codes}"
            )
        return codes
