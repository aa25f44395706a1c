"""The stages the pipeline applies to *one* block: choose, finish, decode.

SZ3-style adaptive selection runs several predictors per block and keeps
one — the only thing decided per block; the entropy codec is the
pipeline's configured stage.  Nothing is serialised to decide: every
candidate is predicted and quantised, the histogram of its codes feeds
one size statistic (:func:`~.encoding.estimated_bytes`) and the smallest
wins.  The winner is then entropy-coded exactly once (rANS blocks by
:meth:`BlockStages.settle`, a file at a time) and its section goes
through the lossless stage once, split or whole (:mod:`.encoding`).
``PredictionPipelineCompressor.encode_one_block`` composes these stages
into the unit every encode path fans out; each stage *returns* its
result, so a thread and the inline loop produce the same bytes.  No
stage times itself: measuring a block runs the very path the workloads
run, pool and helper lane included.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ...errors import CompressionError, EncodingError
from ..blocking import BlockSpec
from ..encoders.huffman import symbol_frequencies
from ..interface import CompressedBlob, SectionContainer
from ..predictors import create_predictor
from ..predictors.base import Predictor, PredictorOutput
from ..predictors.interpolation import InterpolationPredictor
from ..predictors.lorenzo import LorenzoPredictor
from .encoding import (
    ENTROPY_CODED, EncodingPlan, SharedBook, estimated_bytes, inflate_section, open_section,
    pack_section,
)

__all__ = ["BlockResult", "BlockStages"]

#: One encoded block: its block-index entry and its section payload.
BlockResult = Tuple[Dict[str, Any], bytes]


class BlockStages:
    """The per-block stages of :class:`PredictionPipelineCompressor`.

    A base class rather than a collaborator because every input is the
    pipeline's own configuration: ``predictor``, ``name``, ``config``,
    ``adaptive_predictor``, ``shared_codebook``, ``helper_lane``, and its
    ``_wire`` / ``_lossless`` stages.
    """

    def _shared_codebook_active(self) -> bool:
        """Whether blocked compression builds a file-wide entropy model."""
        return self.shared_codebook and self.config.entropy_stage in ENTROPY_CODED

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

    def _choose_block_encoding(
        self, block: np.ndarray, error_bound_abs: float
    ) -> Tuple[str, PredictorOutput, Optional[Dict[int, int]]]:
        """Rank one block's candidates; ``(predictor_name, encoding, histogram)``.

        The one decision made per block, and it never serialises: each
        candidate is predicted and quantised, its code histogram gives
        its size statistic, the smallest wins (ties go to the earlier
        candidate, the pipeline's own predictor first).  The winner's
        histogram comes along for its own entropy model; it is ``None``
        when there was nothing to rank.
        """
        candidates = self._candidate_predictors(block)
        encodings = [p.encode_block(block, error_bound_abs) for p in candidates]
        if not self.adaptive_predictor:
            return candidates[0].name, encodings[0], None
        histograms = [symbol_frequencies(e.codes) for e in encodings]
        stage = self.config.entropy_stage
        sizes = [estimated_bytes(e, h, stage) for e, h in zip(encodings, histograms)]
        winner = sizes.index(min(sizes))
        return candidates[winner].name, encodings[winner], histograms[winner]

    def _compress_lossless(self, inner: SectionContainer) -> Any:
        """The lossless stage of one section: its bytes, or its pending call on the helper lane."""
        call = pack_section(self._lossless, inner)
        if self.helper_lane is not None:
            nbytes = sum(map(inner.section_size, inner.section_names()))
            return self.helper_lane.submit(call, nbytes=nbytes)
        return call()

    def _finish_block(
        self,
        spec: BlockSpec,
        predictor_name: str,
        encoding: PredictorOutput,
        histogram: Optional[Dict[int, int]] = None,
        shared_book: Optional[SharedBook] = None,
        blocks: int = 1,
    ) -> BlockResult:
        """One chosen encoding's final index entry and its payload, which may be pending:
        a rANS block's is its :class:`EncodingPlan` until :meth:`settle`.  ``blocks`` is
        the block count of its file's plan, which sets a rANS stream's lane limit.  The
        entry is the block's geometry, predictor and section, and for an entropy-coded
        section the codec that wrote it and whose model it used (``"shared"`` / ``"block"``)."""
        plan = self._wire.plan(encoding, self.config.entropy_stage, shared_book, histogram, blocks)
        payload = plan if plan.pending else self._compress_lossless(plan.inner)
        entry = spec.as_dict()
        entry.update(predictor=predictor_name, section=f"block:{spec.block_id}")
        if plan.codec in ENTROPY_CODED:
            entry.update(entropy=plan.codec, codebook=plan.codebook)
        return entry, payload

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

    def settle(self, results: Sequence[BlockResult]) -> List[BlockResult]:
        """Block ``results`` with every payload written and resolved, in block order: one
        ``encode_streams`` batch codes the file's waiting rANS streams, then their sections
        go through the lossless stage (on the helper lane if any), and every payload is
        gathered."""
        self._wire.emit([payload for _, payload in results if isinstance(payload, EncodingPlan)])
        payloads = [
            self._compress_lossless(p.inner) if isinstance(p, EncodingPlan) else p
            for _, p in results
        ]
        if self.helper_lane is not None:
            payloads = self.helper_lane.gather(payloads)
        return [(entry, payload) for (entry, _), payload in zip(results, payloads)]

    def inflate_sections(self, blob: CompressedBlob) -> Optional[Dict[str, Any]]:
        """Start inflating each distinct section of ``blob`` on the helper lane, by
        name, for ``decompress(blob, inflated)``; ``None`` without the lane."""
        if self.helper_lane is None:
            return None
        names = dict.fromkeys(entry["section"] for entry in blob.block_index)
        size = blob.container.section_size
        return {n: self.helper_lane.submit(inflate_section, blob, n, nbytes=size(n)) for n in names}

    def _decode_sections(
        self, blob: CompressedBlob, names: Sequence[str], inflated: Optional[Dict] = None
    ) -> Dict[str, tuple]:
        """Open (or take from ``inflated``) and entropy-decode sections, by name.

        One batch: every Huffman stream coded with the blob's shared
        codebook is a set of lanes of the same lockstep decode.
        """
        raws = [None] * len(names) if inflated is None else self.helper_lane.gather(
            [inflated.pop(name) for name in names]
        )
        inners = [open_section(blob, name, raw) for name, raw in zip(names, raws)]
        fields = self._wire.deserialize_all(inners, blob.shared_codebook_bytes)
        return dict(zip(names, fields))

    def _reconstruct_block(
        self, blob: CompressedBlob, entry: Dict[str, Any], fields: tuple
    ) -> np.ndarray:
        """Predictor-decode one block from its section's decoded ``fields``."""
        codes, mask, literals, aux, meta = fields
        predictor = self._predictor_for(entry["predictor"], meta)
        shape = tuple(map(int, entry["shape"]))
        try:
            return predictor.decode_block(
                codes, mask, literals, aux, meta, shape, blob.error_bound_abs
            )
        except ValueError as exc:  # NumPy could not lay the decoded stream out as the block
            raise EncodingError(
                f"block {entry['id']}: the decoded stream does not fit shape {shape}"
            ) from exc
