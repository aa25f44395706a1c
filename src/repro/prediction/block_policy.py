"""Learned per-block predictor selection.

Brute-force adaptive mode encodes every block with *every* candidate
predictor and keeps the smallest output — robust, but the losing
encodings are pure overhead.  :class:`BlockPolicy` learns that choice
instead: one regressor per candidate predictor maps a block's feature
vector (the same 11 features the quality predictor uses, extracted by
:meth:`repro.features.FeatureExtractor.extract_blocks` at block
granularity) to the log of the encoded size, and the policy picks the
candidate with the smallest predicted size.  With a trained policy the
pipeline encodes each block exactly once.

Training labels come from actually encoding blocks with each candidate
(:func:`build_block_policy_samples`), so the policy distils the
brute-force search it replaces.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..compression import ErrorBound, create_compressor
from ..compression.blocking import BlockPlan, BlockShapeLike
from ..compression.predictors import create_predictor
from ..errors import ModelNotFittedError
from ..features.extractor import FeatureExtractor
from ..features.vector import FeatureVector
from ..ml.decision_tree import DecisionTreeRegressor
from ..ml.model_io import model_from_dict, model_to_dict

__all__ = ["BlockPolicySample", "BlockPolicy", "build_block_policy_samples", "train_block_policy"]

#: Candidate predictors the policy arbitrates between by default — the
#: same pair brute-force adaptive selection tries per block.
DEFAULT_CANDIDATES: Tuple[str, ...] = ("lorenzo", "interpolation")

#: Entropy codecs the policy can arbitrate between per block.  These are
#: the coded values of ``PipelineConfig.entropy_stage`` ("none" is not a
#: candidate: skipping entropy coding is a pipeline-level choice, not a
#: per-block one).
ENTROPY_CANDIDATES: Tuple[str, ...] = ("huffman", "rans")


@dataclass
class BlockPolicySample:
    """One training sample: a block's features and each candidate's size.

    ``sizes`` maps candidate *predictors* to the block's true encoded
    size.  ``entropy_sizes`` (optional) maps candidate *entropy codecs*
    to the size of the same block encoded with its best predictor but
    the given entropy stage — the label for the per-block codec choice.
    """

    features: FeatureVector
    sizes: Dict[str, int] = field(default_factory=dict)
    entropy_sizes: Dict[str, int] = field(default_factory=dict)

    @property
    def best_predictor(self) -> str:
        """The candidate that actually encoded this block smallest."""
        return min(self.sizes, key=self.sizes.get)

    @property
    def best_entropy(self) -> Optional[str]:
        """The entropy codec that encoded this block smallest (if labelled)."""
        if not self.entropy_sizes:
            return None
        return min(self.entropy_sizes, key=self.entropy_sizes.get)


class BlockPolicy:
    """Choose a block's predictor from its features, without encoding it.

    One :class:`DecisionTreeRegressor` per candidate predicts
    ``log1p(encoded size)``; :meth:`choose` returns the candidate with
    the smallest prediction.  Regressing sizes (rather than classifying
    the winner) keeps the decision calibrated when candidates are close
    and reuses the repo's existing tree models.
    """

    def __init__(
        self,
        candidates: Sequence[str] = DEFAULT_CANDIDATES,
        extractor: Optional[FeatureExtractor] = None,
        max_depth: int = 12,
    ) -> None:
        self.candidates: Tuple[str, ...] = tuple(candidates)
        if len(self.candidates) < 2:
            raise ValueError("a block policy needs at least two candidate predictors")
        # Blocks are small, so inspect them in full by default.
        self.extractor = extractor or FeatureExtractor(sample_fraction=1.0)
        self.max_depth = int(max_depth)
        self._models: Dict[str, DecisionTreeRegressor] = {}
        self._entropy_models: Dict[str, DecisionTreeRegressor] = {}
        self.training_samples: int = 0

    # ------------------------------------------------------------------ #
    @property
    def is_fitted(self) -> bool:
        """Whether every candidate has a trained size model."""
        return bool(self._models) and set(self._models) == set(self.candidates)

    @property
    def chooses_entropy(self) -> bool:
        """Whether this policy also carries per-block entropy codec models.

        Policies trained (or saved) before the rANS stage existed return
        ``False`` here, and the pipeline falls back to its size-estimate
        heuristic for the codec choice.
        """
        return len(self._entropy_models) >= 2

    def fit(self, samples: Iterable[BlockPolicySample]) -> "BlockPolicy":
        """Train the per-candidate size models from labelled samples.

        Samples that also carry ``entropy_sizes`` train the per-codec
        entropy models as a side effect; the entropy models are only kept
        when every labelled codec has the same sample rows (so the size
        predictions stay comparable).
        """
        rows: List[np.ndarray] = []
        targets: Dict[str, List[float]] = {name: [] for name in self.candidates}
        entropy_rows: List[np.ndarray] = []
        entropy_targets: Dict[str, List[float]] = {}
        for sample in samples:
            missing = [name for name in self.candidates if name not in sample.sizes]
            if missing:
                raise ValueError(f"sample is missing candidate sizes for {missing}")
            row = sample.features.to_array()
            rows.append(row)
            for name in self.candidates:
                targets[name].append(float(np.log1p(sample.sizes[name])))
            if sample.entropy_sizes:
                if not entropy_targets:
                    entropy_targets = {codec: [] for codec in sorted(sample.entropy_sizes)}
                if set(sample.entropy_sizes) == set(entropy_targets):
                    entropy_rows.append(row)
                    for codec in entropy_targets:
                        entropy_targets[codec].append(
                            float(np.log1p(sample.entropy_sizes[codec]))
                        )
        if not rows:
            raise ModelNotFittedError("cannot fit a block policy on zero samples")
        X = np.vstack(rows)
        for name in self.candidates:
            model = DecisionTreeRegressor(max_depth=self.max_depth, min_samples_leaf=1)
            model.fit(X, np.asarray(targets[name]))
            self._models[name] = model
        self._entropy_models = {}
        if entropy_rows and len(entropy_targets) >= 2:
            Xe = np.vstack(entropy_rows)
            for codec in entropy_targets:
                model = DecisionTreeRegressor(
                    max_depth=self.max_depth, min_samples_leaf=1
                )
                model.fit(Xe, np.asarray(entropy_targets[codec]))
                self._entropy_models[codec] = model
        self.training_samples = len(rows)
        return self

    # ------------------------------------------------------------------ #
    def predicted_sizes(self, features: FeatureVector) -> Dict[str, float]:
        """Predicted encoded size (bytes) per candidate for one block."""
        if not self.is_fitted:
            raise ModelNotFittedError("block policy has not been fitted")
        row = features.to_array().reshape(1, -1)
        return {
            name: float(np.expm1(self._models[name].predict(row)[0]))
            for name in self.candidates
        }

    def choose(self, features: FeatureVector) -> str:
        """The candidate predicted to encode this block smallest."""
        sizes = self.predicted_sizes(features)
        return min(sizes, key=sizes.get)

    def choose_for_block(
        self, block: np.ndarray, error_bound_abs: float, compressor: str = "sz3"
    ) -> str:
        """Extract the block's features and pick its predictor.

        This is the hook the compression pipeline calls per block when a
        policy is configured; ``compressor`` feeds the config-based
        feature exactly as quality prediction does.
        """
        features = self.extractor.extract_features(
            np.asarray(block), error_bound_abs, compressor=compressor
        )
        return self.choose(features)

    # ------------------------------------------------------------------ #
    def predicted_entropy_sizes(self, features: FeatureVector) -> Dict[str, float]:
        """Predicted encoded size (bytes) per entropy codec for one block."""
        if not self.chooses_entropy:
            raise ModelNotFittedError("block policy has no entropy codec models")
        row = features.to_array().reshape(1, -1)
        return {
            codec: float(np.expm1(model.predict(row)[0]))
            for codec, model in self._entropy_models.items()
        }

    def choose_entropy(self, features: FeatureVector) -> str:
        """The entropy codec predicted to encode this block smallest."""
        sizes = self.predicted_entropy_sizes(features)
        return min(sizes, key=sizes.get)

    def choose_entropy_for_block(
        self, block: np.ndarray, error_bound_abs: float, compressor: str = "sz3"
    ) -> str:
        """Extract the block's features and pick its entropy codec.

        The pipeline calls this per block (when ``chooses_entropy`` is
        true) to tag each block section with the codec predicted to
        encode it smallest.
        """
        features = self.extractor.extract_features(
            np.asarray(block), error_bound_abs, compressor=compressor
        )
        return self.choose_entropy(features)

    # ------------------------------------------------------------------ #
    # Persistence
    # ------------------------------------------------------------------ #
    def save(self, path: Union[str, Path]) -> Path:
        """Write the fitted policy to a JSON file."""
        if not self.is_fitted:
            raise ModelNotFittedError("cannot save an unfitted block policy")
        payload = {
            "candidates": list(self.candidates),
            "max_depth": self.max_depth,
            "training_samples": self.training_samples,
            "models": {name: model_to_dict(self._models[name]) for name in self.candidates},
        }
        if self._entropy_models:
            payload["entropy_models"] = {
                codec: model_to_dict(model)
                for codec, model in self._entropy_models.items()
            }
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(json.dumps(payload), encoding="utf-8")
        return target

    @classmethod
    def load(cls, path: Union[str, Path]) -> "BlockPolicy":
        """Load a policy previously written by :meth:`save`."""
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
        policy = cls(
            candidates=tuple(payload["candidates"]),
            max_depth=int(payload.get("max_depth", 12)),
        )
        policy._models = {
            name: model_from_dict(model_payload)
            for name, model_payload in payload["models"].items()
        }
        # Policies saved before the entropy stage landed have no codec
        # models; loading them leaves ``chooses_entropy`` False.
        policy._entropy_models = {
            codec: model_from_dict(model_payload)
            for codec, model_payload in payload.get("entropy_models", {}).items()
        }
        policy.training_samples = int(payload.get("training_samples", 0))
        return policy


ErrorBoundLike = Union[float, ErrorBound]


def _resolve_bound(error_bound: ErrorBoundLike, arr: np.ndarray) -> float:
    """Absolute bound for one array (relative bounds resolve per array)."""
    if isinstance(error_bound, ErrorBound):
        return error_bound.absolute_for(arr)
    return float(error_bound)


def build_block_policy_samples(
    arrays: Iterable[np.ndarray],
    error_bound: ErrorBoundLike,
    compressor: str = "sz3",
    block_shape: BlockShapeLike = 32,
    candidates: Sequence[str] = DEFAULT_CANDIDATES,
    extractor: Optional[FeatureExtractor] = None,
    entropy_candidates: Sequence[str] = ENTROPY_CANDIDATES,
) -> List[BlockPolicySample]:
    """Label training samples by really encoding blocks with each candidate.

    For every block of every array, the block's feature vector is
    extracted (via :meth:`FeatureExtractor.extract_blocks`, the same
    partition the pipelines use) and each candidate predictor encodes the
    block through the named pipeline's serialisation + lossless stages to
    get its true size.  ``error_bound`` may be a float (absolute bound
    shared by every array) or an :class:`ErrorBound`, which is resolved
    per array — matching how the orchestrator resolves the bound per file
    at inference time.

    When ``entropy_candidates`` names at least two codecs, each block is
    additionally re-encoded with its best predictor under every candidate
    entropy stage, labelling the per-block codec choice.  Pass an empty
    sequence to skip those extra encodes and train a predictor-only
    policy.
    """
    pipeline = create_compressor(compressor)
    extractor = extractor or FeatureExtractor(sample_fraction=1.0)
    predictors = {name: create_predictor(name, {}) for name in candidates}
    samples: List[BlockPolicySample] = []
    for array in arrays:
        arr = np.asarray(array)
        if not np.issubdtype(arr.dtype, np.floating):
            arr = arr.astype(np.float32)
        eb_abs = _resolve_bound(error_bound, arr)
        plan = BlockPlan.partition(arr.shape, block_shape)
        for block_features in extractor.extract_blocks(
            arr, eb_abs, compressor=compressor, block_shape=block_shape
        ):
            block = plan.extract(arr, block_features.spec)
            if not np.isfinite(block).all():
                continue
            sizes = {
                name: pipeline.measure_block_encoding(block, eb_abs, predictor)
                for name, predictor in predictors.items()
            }
            entropy_sizes: Dict[str, int] = {}
            if len(entropy_candidates) >= 2:
                best = min(sizes, key=sizes.get)
                entropy_sizes = {
                    codec: pipeline.measure_block_encoding(
                        block, eb_abs, predictors[best], entropy_stage=codec
                    )
                    for codec in entropy_candidates
                }
            samples.append(
                BlockPolicySample(
                    features=block_features.features,
                    sizes=sizes,
                    entropy_sizes=entropy_sizes,
                )
            )
    return samples


def train_block_policy(
    arrays: Iterable[np.ndarray],
    error_bound: ErrorBoundLike,
    compressor: str = "sz3",
    block_shape: BlockShapeLike = 32,
    candidates: Sequence[str] = DEFAULT_CANDIDATES,
) -> Tuple[BlockPolicy, Dict[str, float]]:
    """Train a block policy on ``arrays`` and report its training accuracy.

    Returns the fitted policy plus a summary: sample count, training
    time, and the fraction of training blocks where the policy picks the
    true smallest candidate (``agreement``).
    """
    start = time.perf_counter()
    samples = build_block_policy_samples(
        arrays,
        error_bound,
        compressor=compressor,
        block_shape=block_shape,
        candidates=candidates,
    )
    policy = BlockPolicy(candidates=candidates).fit(samples)
    agree = sum(
        1 for sample in samples if policy.choose(sample.features) == sample.best_predictor
    )
    summary = {
        "samples": float(len(samples)),
        "agreement": agree / len(samples) if samples else 0.0,
        "training_time_s": time.perf_counter() - start,
    }
    if policy.chooses_entropy:
        labelled = [sample for sample in samples if sample.entropy_sizes]
        entropy_agree = sum(
            1
            for sample in labelled
            if policy.choose_entropy(sample.features) == sample.best_entropy
        )
        summary["entropy_agreement"] = (
            entropy_agree / len(labelled) if labelled else 0.0
        )
    return policy, summary
