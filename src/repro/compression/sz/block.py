"""The stages the pipeline applies to *one* block: choose, finish, decode.

SZ3-style adaptive selection tries several predictors per block and
keeps whichever compresses smaller; a learned
:class:`~repro.prediction.block_policy.BlockPolicy` can answer instead of
the brute-force comparison.  With per-block entropy models the codec
(Huffman vs rANS) is chosen per block the same way: policy first, exact
size estimates otherwise.  ``PredictionPipelineCompressor.encode_one_block``
composes these stages into the unit every encode path fans out; each
stage *returns* its result, so a thread and the inline loop produce the
same bytes.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ...errors import CompressionError
from ...utils.logging import get_logger
from ..blocking import BlockSpec
from ..interface import CompressedBlob, SectionContainer
from ..predictors import create_predictor
from ..predictors.base import Predictor, PredictorOutput
from ..predictors.interpolation import InterpolationPredictor
from ..predictors.lorenzo import LorenzoPredictor
from .dedup import BlockResult, block_entry
from .encoding import ENTROPY_CODED, SharedBook

__all__ = ["BlockStages"]


class BlockStages:
    """The per-block stages of :class:`PredictionPipelineCompressor`.

    A base class rather than a collaborator because every input is the
    pipeline's own configuration: ``predictor``, ``name``, ``config``,
    ``adaptive_predictor``, ``block_policy``, ``shared_codebook``, and
    its ``_wire`` / ``_lossless`` / ``_timed`` stages.
    """

    def _shared_codebook_active(self) -> bool:
        """Whether blocked compression builds a file-wide entropy model."""
        return self.shared_codebook and self.config.entropy_stage in ENTROPY_CODED

    def _entropy_choice_active(self) -> bool:
        """Whether the entropy codec is chosen per block.

        Per-block choice needs per-block entropy models, so it is off
        whenever a shared codebook commits the whole file to one stage
        (and trivially off when the entropy stage is bypassed);
        otherwise it rides along with adaptive predictor selection.
        """
        return (
            self.adaptive_predictor
            and self.config.entropy_stage != "none"
            and not self._shared_codebook_active()
        )

    def _candidate_predictors(self, block: np.ndarray) -> List[Predictor]:
        """Predictors competing for one block under adaptive selection.

        The pipeline's own predictor always competes, joined by Lorenzo
        and interpolation.  Blocks with non-finite values only use
        Lorenzo, whose literal fallback handles them unconditionally.
        """
        if not self.adaptive_predictor:
            return [self.predictor]
        if not np.isfinite(block).all():
            if isinstance(self.predictor, LorenzoPredictor):
                return [self.predictor]
            return [LorenzoPredictor()]
        candidates: List[Predictor] = [self.predictor]
        for rival in (LorenzoPredictor, InterpolationPredictor):
            if rival.name != self.predictor.name:
                candidates.append(rival())
        return candidates

    def _ask_policy(
        self, question: str, block: np.ndarray, error_bound_abs: float
    ) -> Optional[str]:
        """The learned block policy's answer for one block, or ``None``.

        ``None`` when no policy applies — adaptive selection is off, or
        the block carries non-finite values (only Lorenzo's literal
        escape handles those).  A policy that *fails* (bad model file,
        feature mismatch) is warned about once and dropped from this
        pipeline, so the caller's brute-force fallback takes over for
        good rather than silently, block after block.
        """
        if self.block_policy is None or not self.adaptive_predictor:
            return None
        if not np.isfinite(block).all():
            return None
        try:
            return getattr(self.block_policy, question)(
                block, error_bound_abs, compressor=self.name
            )
        except Exception as exc:  # the policy is foreign model code
            get_logger(__name__).warning(
                "block policy %s failed (%s: %s); falling back to brute-force "
                "selection for this pipeline",
                question,
                type(exc).__name__,
                exc,
            )
            self.block_policy = None
            return None

    def _policy_predictor(self, block: np.ndarray, error_bound_abs: float) -> Optional[Predictor]:
        """Predictor the learned policy picks, or ``None`` for brute force."""
        name = self._ask_policy("choose_for_block", block, error_bound_abs)
        if name is None:
            return None
        if name == self.predictor.name:
            return self.predictor
        try:
            return create_predictor(name, {})
        except CompressionError:
            return None  # a predictor the factory cannot rebuild

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
        candidates = [chosen] if chosen is not None else self._candidate_predictors(block)
        best: Optional[Tuple[str, PredictorOutput, Optional[bytes], Optional[str]]] = None
        for predictor in candidates:
            with self._timed("predict_quantize_s"):
                encoding = predictor.encode_block(block, error_bound_abs)
            if len(candidates) == 1:
                return predictor.name, encoding, None, None
            inner, codec, _ = self._serialize(encoding)
            payload = self._compress_lossless(inner)
            if best is None or len(payload) < len(best[2]):
                best = (predictor.name, encoding, payload, codec)
        assert best is not None
        return best

    def _entropy_codec_for_block(
        self, block: np.ndarray, codes: np.ndarray, error_bound_abs: float
    ) -> Optional[str]:
        """Entropy codec for one block, or ``None`` for the config default.

        Mirrors predictor selection: the learned block policy decides
        when it has entropy models, otherwise the exact serialised-size
        estimators arbitrate.
        """
        if not self._entropy_choice_active():
            return None
        if getattr(self.block_policy, "chooses_entropy", False):
            choice = self._ask_policy("choose_entropy_for_block", block, error_bound_abs)
            if choice in ENTROPY_CODED:
                return choice
        return self._wire.smaller_codec(codes)

    def _serialize(
        self,
        encoding: PredictorOutput,
        shared_book: Optional[SharedBook] = None,
        entropy: Optional[str] = None,
    ) -> Tuple[bytes, str, Optional[str]]:
        """:meth:`EncodingWire.serialize` under the configured stage.

        ``entropy`` overrides it for this one encoding (the per-block
        codec choice).
        """
        return self._wire.serialize(encoding, entropy or self.config.entropy_stage, shared_book)

    def _compress_lossless(self, data: bytes) -> bytes:
        with self._timed("lossless_s"):
            return self._lossless.compress(data)

    def _finish_block(
        self,
        spec: BlockSpec,
        predictor_name: str,
        encoding: PredictorOutput,
        shared_book: Optional[SharedBook] = None,
        entropy: Optional[str] = None,
    ) -> BlockResult:
        """Serialise one chosen encoding into its ``(index_entry, payload)``."""
        inner, codec, codebook = self._serialize(encoding, shared_book, entropy)
        return (
            block_entry(spec, predictor_name, codec, codebook),
            self._compress_lossless(inner),
        )

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
        inner, _, _ = self._serialize(encoding, entropy=entropy_stage)
        return len(self._lossless.compress(inner))

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

    def _decode_sections(self, blob: CompressedBlob, names: Sequence[str]) -> Dict[str, tuple]:
        """Inflate, parse and entropy-decode block sections of ``blob``, by name.

        One batch: every Huffman stream coded with the blob's shared
        codebook is a set of lanes of the same lockstep decode.
        """
        backend = self._backend_for(blob)
        inners = [
            SectionContainer.from_bytes(backend.decompress(blob.container.get_section(name)))
            for name in names
        ]
        fields = self._wire.deserialize_all(inners, blob.shared_codebook_bytes)
        return dict(zip(names, fields))

    def _reconstruct_block(
        self, blob: CompressedBlob, entry: Dict[str, Any], spec: BlockSpec, fields: tuple
    ) -> np.ndarray:
        """Predictor-decode one block from its section's decoded ``fields``."""
        codes, mask, literals, aux, meta = fields
        predictor = self._predictor_for(entry["predictor"], meta)
        return predictor.decode_block(
            codes, mask, literals, aux, meta, spec.shape, blob.error_bound_abs
        )
