"""Composable prediction-based compression pipeline.

This mirrors the modular structure of SZ3 that the paper highlights: a
*predictor* stage (Lorenzo / regression / interpolation), a *quantiser*
(inside the predictors), an *entropy* stage (Huffman, interleaved rANS,
or bypass) and a final *lossless* dictionary stage (deflate or none).
Different combinations form the different "compression pipelines"
evaluated in the paper.

This module is construction plus orchestration; the stages live beside
it: :mod:`.block` (what is done to one block: predictor choice,
finishing a chosen encoding, its index entry, decoding a section) and
:mod:`.encoding` (the wire form of one encoding, one codec table).  An
array is always encoded as a :class:`BlockPlan` and decoded from a block index —
without a ``block_shape`` the plan is the one block that is the array.
Every block is entropy-coded with the configured ``entropy_stage`` and
records the codec that wrote it in its section header, so a blob
whose blocks carry different codecs (a rANS block degraded to Huffman,
an older build's per-block choice) decodes on any reader.
"""

from __future__ import annotations

import math
import zlib
from collections import Counter
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ...cache.keys import pipeline_fingerprint
from ...errors import ConfigurationError, EncodingError
from ..blocking import BlockPlan, BlockShapeLike, BlockSpec
from ..encoders.lossless import LosslessBackend, get_lossless_backend
from ..header import FORMAT_VERSION
from ..interface import CompressedBlob, Compressor, dtype_name
from ..predictors.base import Predictor, PredictorOutput
from .block import BlockResult, BlockStages
from .encoding import ENTROPY_CODED, ENTROPY_STAGES, EncodingWire, SharedBook

__all__ = ["PipelineConfig", "PredictionPipelineCompressor"]

#: A callable mapping per-block work over a collection of items; the
#: orchestrator injects :meth:`repro.core.parallel.ParallelExecutor.map_blocks`
#: here so blocks of one file compress/decompress concurrently.
BlockMapper = Callable[[Callable[[Any], Any], Sequence[Any]], List[Any]]

#: Fewest elements a block must hold for the thread fan-out to pay.  A
#: block task is a chain of NumPy calls that each release and retake the
#: GIL; on small blocks those hand-offs cost more than the overlap wins
#: (through a 2-thread pool Miranda fields compress 26-42 % *slower* at
#: 32^3 = 32 768 elements, level at 48^3, 9 % faster at 64^3 = 262 144 —
#: table in ARCHITECTURE.md, "Parallel execution"), so blocks below the
#: grain run inline whatever ``block_workers`` says.
_POOL_GRAIN_ELEMENTS = 1 << 17


@dataclass
class PipelineConfig:
    """Configuration of a prediction-based pipeline."""

    entropy_stage: str = "huffman"
    lossless_backend: str = "deflate"

    def __post_init__(self) -> None:
        if self.entropy_stage not in ENTROPY_STAGES:
            raise ConfigurationError(
                f"entropy stage must be one of {ENTROPY_STAGES}, got {self.entropy_stage!r}"
            )


class PredictionPipelineCompressor(BlockStages, Compressor):
    """A full predictor → quantiser → entropy → lossless pipeline."""

    name = "prediction-pipeline"
    #: The registry name this instance was created under, stamped by
    #: :func:`~repro.compression.registry.create_compressor` (``sz3-fast``
    #: builds a pipeline named ``sz3``); blob-tier cache keys have always
    #: carried it rather than :attr:`name`.
    registered_as: Optional[str] = None

    #: Block options: documented and assigned by :meth:`configure_blocks`.
    block_shape: Optional[BlockShapeLike] = None
    adaptive_predictor = False
    block_executor: Optional[BlockMapper] = None
    shared_codebook = True
    helper_lane: Optional[Any] = None

    def __init__(
        self,
        predictor: Predictor,
        config: Optional[PipelineConfig] = None,
        name: Optional[str] = None,
        **block_options: Any,
    ) -> None:
        """``block_options`` are :meth:`configure_blocks`'s keywords."""
        self.predictor = predictor
        self.config = config or PipelineConfig()
        if name:
            self.name = name
        #: The most recent :meth:`block_plan`: the files of a dataset
        #: mostly share one shape, and a plan depends on nothing else.
        self._last_plan: Optional[BlockPlan] = None
        self._wire = EncodingWire()
        self._lossless: LosslessBackend = get_lossless_backend(self.config.lossless_backend)
        self.configure_blocks(**block_options)

    def configure_blocks(
        self,
        block_shape: Optional[BlockShapeLike] = None,
        adaptive_predictor: Optional[bool] = None,
        block_executor: Optional[BlockMapper] = None,
        shared_codebook: Optional[bool] = None,
        helper_lane: Optional[Any] = None,
    ) -> "PredictionPipelineCompressor":
        """Set (or re-tune) the block plan and how its blocks are run.

        Every argument left ``None`` keeps its current value; returns
        ``self`` so callers can chain off a registry factory.

        * ``block_shape`` — the chunk grid encoded block by block; unset,
          an array is one block.
        * ``adaptive_predictor`` — pick the predictor per block by
          ranking the candidates' code histograms; see :mod:`.block`.
          The codec stays the configured ``entropy_stage`` on every block.
        * ``block_executor`` — fans per-block work out (see
          :data:`BlockMapper`).
        * ``shared_codebook`` — build one entropy model per *file* from
          the frequencies across all blocks, store it once in the blob
          header and encode every block against it, which it covers by
          construction (a one-block plan has nobody to share with and
          always uses its own).
        * ``helper_lane`` — a ``HelperLane`` to (de)compress sections on.
        """
        if block_shape is not None:
            self.block_shape = block_shape
            self._last_plan = None
        if adaptive_predictor is not None:
            self.adaptive_predictor = bool(adaptive_predictor)
        if block_executor is not None:
            self.block_executor = block_executor
        if shared_codebook is not None:
            self.shared_codebook = bool(shared_codebook)
        if helper_lane is not None:
            self.helper_lane = helper_lane
        return self

    # ------------------------------------------------------------------ #
    # Compressor interface
    # ------------------------------------------------------------------ #
    def compress_array(self, data: np.ndarray, error_bound_abs: float) -> CompressedBlob:
        """The one block encode (:meth:`encode_blocks`), assembled into a blob."""
        header, blocks = self.encode_blocks(data, error_bound_abs)
        codecs = Counter(entry.get("entropy", "none") for entry, _ in blocks)
        header["metadata"]["block_codecs"] = dict(sorted(codecs.items()))
        return CompressedBlob.assemble(header, blocks)

    def encode_blocks(
        self, data: np.ndarray, error_bound_abs: float
    ) -> Tuple[Dict[str, Any], List[BlockResult]]:
        """The one block encode: plan, choose, pool, finish, settle.

        Returns the blob header and every block's settled ``(entry,
        payload)`` in block order: :meth:`compress_array` assembles them
        and the streaming pipeline ships them, one message a block.  Every
        stage closure *returns* its result, so the inline loop and the
        thread pool run the same code and the bytes cannot depend on
        which did.
        """
        arr = np.asarray(data)
        plan = self.block_plan(arr)
        fan_out = partial(self._map_blocks, block_elements=math.prod(plan.block_shape))
        shared_book = None
        if self._shared_codebook_active() and plan.num_blocks > 1:
            # A shared model needs two blocks to share it: choose a
            # predictor for and quantise every block, pool their exact
            # symbol frequencies, then serialise each against the book.
            chosen = fan_out(
                lambda spec: self._choose_block_encoding(plan.extract(arr, spec), error_bound_abs),
                plan.blocks,
            )
            shared_book = self.prepare_shared_codebook([encoding for _, encoding, _ in chosen])
            blocks = fan_out(
                lambda i: self._finish_block(
                    plan.blocks[i], *chosen[i], shared_book, plan.num_blocks
                ),
                range(plan.num_blocks),
            )
        else:
            blocks = fan_out(
                lambda spec: self._start_block(arr, plan, spec, error_bound_abs), plan.blocks
            )
        blocks = self.settle(blocks)
        return self.blocked_header(arr, plan, error_bound_abs, shared_book=shared_book), blocks

    def decompress_blob(self, blob: CompressedBlob, inflated: Optional[Dict] = None) -> np.ndarray:
        index = blob.block_index
        # Stage one, here: every distinct section inflated (or handed in),
        # parsed and entropy-decoded as one batch.  Stage two, per block
        # and fanned out: predictor decode.
        fields = self._decode_sections(
            blob, list(dict.fromkeys(entry["section"] for entry in index)), inflated
        )
        if len(index) == 1 and tuple(index[0]["shape"]) == blob.shape:
            # One block that is the array: its reconstruction is the result.
            recon = self._reconstruct_block(blob, index[0], fields[index[0]["section"]])
            return recon.astype(np.dtype(blob.dtype), copy=False)
        specs = [BlockSpec.from_dict(entry) for entry in index]
        if sum(spec.num_elements for spec in specs) != blob.num_elements:
            raise EncodingError(f"block index does not cover an array of shape {blob.shape}")
        out = np.empty(blob.shape, dtype=np.float64)

        def decode_block(item: Tuple[Dict[str, Any], BlockSpec]) -> None:
            # Each block writes a disjoint region of the output, so the
            # per-block tasks can run concurrently without locking.  An
            # alias entry (written by older builds) names its
            # representative's section and decodes it again.
            entry, spec = item
            out[spec.slices()] = self._reconstruct_block(blob, entry, fields[entry["section"]])

        self._map_blocks(
            decode_block,
            list(zip(index, specs)),
            max(spec.num_elements for spec in specs),
        )
        return out.astype(np.dtype(blob.dtype), copy=False)

    # ------------------------------------------------------------------ #
    # Block fan-out
    # ------------------------------------------------------------------ #
    def _map_blocks(
        self, func: Callable[[Any], Any], items: Sequence[Any], block_elements: int
    ) -> List[Any]:
        """Run ``func`` over per-block ``items``; ``block_elements`` sizes a block.

        The one fan-out rule: two or more blocks at or above the grain go
        to the injected executor; everything else runs inline.
        """
        pooled = self.block_executor is not None and block_elements >= _POOL_GRAIN_ELEMENTS
        if pooled and len(items) > 1:
            return list(self.block_executor(func, items))
        return [func(item) for item in items]

    # ------------------------------------------------------------------ #
    # Block plan: encode
    # ------------------------------------------------------------------ #
    def encode_one_block(
        self,
        arr: np.ndarray,
        plan: BlockPlan,
        spec: BlockSpec,
        error_bound_abs: float,
        defer: bool = False,
    ) -> BlockResult:
        """Encode a single block against its own model; returns its ``(index_entry, payload)``.

        Extract, choose the predictor, finish (one entropy encode with the
        configured stage, one lossless compress).  With ``defer`` (only
        :meth:`_start_block` passes it) the entry is final but the payload
        may wait for :meth:`settle`: a rANS stream, a helper-lane deflate.
        """
        choice = self._choose_block_encoding(plan.extract(arr, spec), error_bound_abs)
        result = self._finish_block(spec, *choice, blocks=plan.num_blocks)
        return result if defer else self.settle([result])[0]

    def _start_block(self, arr, plan, spec, error_bound_abs) -> BlockResult:
        """The per-block-model unit :meth:`encode_blocks` fans out before one :meth:`settle`.
        It goes through the public method: ``bench/`` counts streamed blocks by its calls."""
        return self.encode_one_block(arr, plan, spec, error_bound_abs, defer=True)

    def block_plan(self, arr: np.ndarray) -> BlockPlan:
        """The block partition this pipeline applies to ``arr``.

        Without a ``block_shape`` — or with one that covers ``arr`` — the
        plan is one block, the array.
        """
        shape = np.asarray(arr).shape
        plan = self._last_plan
        if plan is None or plan.array_shape != shape:
            plan = self._last_plan = BlockPlan.partition(
                shape, shape if self.block_shape is None else self.block_shape
            )
        return plan

    def blocked_header(
        self,
        arr: np.ndarray,
        plan: BlockPlan,
        error_bound_abs: float,
        shared_book: Optional[SharedBook] = None,
    ) -> Dict[str, Any]:
        """Blob-level header for a blob of ``arr`` (sans block index).

        :meth:`CompressedBlob.assemble` turns it and the encoded blocks
        into the blob, at either end of a stream.  The shared entropy
        model (a Huffman codebook or rANS frequency table) rides in it as
        a bytes value, serialised once per file instead of once per block.
        """
        header = {
            "compressor": self.name,
            "shape": list(arr.shape),
            "dtype": dtype_name(arr.dtype),
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
        if shared_book is not None:
            # Deflated here: unlike the per-block model sections this
            # header field never passes through the lossless stage.
            header["shared_codebook"] = zlib.compress(shared_book.serialize(), 6)
        return header

    def prepare_shared_codebook(
        self, encodings: Sequence[PredictorOutput]
    ) -> Optional[SharedBook]:
        """The file-wide entropy model pooled over every block's encoding, which covers
        each; ``None`` with nothing to model or a rANS alphabet too wide for a table.
        :meth:`encode_blocks`' pooling step, a method so ``bench/`` can time it by name."""
        return self._wire.pooled_shared_book(self.config.entropy_stage, encodings)

    def cache_fingerprint(self, error_bound_abs: float) -> Dict[str, Any]:
        """Everything besides the data that shapes this pipeline's blobs.

        The one place that lists it, so two jobs share a blob-cache entry
        only when compressing would produce the same output.
        """
        extra: Dict[str, Any] = {
            "entropy": self.config.entropy_stage,
            "lossless": self._lossless.name,
        }
        if self.config.entropy_stage in ENTROPY_CODED:
            # A long coded stream deflate cannot shrink is stored as it is.
            extra["section_layout"] = "split"
        if self.config.entropy_stage == "rans":  # lanes from the file's plan, tables as gaps
            extra["rans_lanes"] = "plan"
        extra["format"] = FORMAT_VERSION  # the container version a cached blob was written as
        return pipeline_fingerprint(
            compressor=self.registered_as or self.name,
            error_bound_abs=error_bound_abs,
            block_shape=self.block_shape,
            codebook_mode="shared" if self.shared_codebook else "per-block",
            adaptive_predictor=self.adaptive_predictor,
            extra=extra,
        )

    # ------------------------------------------------------------------ #
    # Block plan: decode
    # ------------------------------------------------------------------ #
    def decompress_block(self, blob: CompressedBlob, block_id: int) -> np.ndarray:
        """Random-access decode of a single block.

        Only the requested block's section is read — on a parsed blob
        the other block payloads are never materialised, so the cost is
        proportional to one block regardless of blob size.
        """
        entry = blob.block_entry(block_id)
        fields = self._decode_sections(blob, [entry["section"]])[entry["section"]]
        recon = self._reconstruct_block(blob, entry, fields)
        return recon.astype(np.dtype(blob.dtype), copy=False)
