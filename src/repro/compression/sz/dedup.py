"""Block dedup: identical-block grouping, alias entries and index entries.

Within one blob, blocks with identical raw content are encoded once (the
*representative*) and every later copy becomes an alias entry pointing at
the representative's stored section.  Across jobs, a representative's
self-contained payload can be served from the block store; the entry
builder here is what keeps fresh, cached and aliased blocks describing
themselves the same way.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ...cache.keys import array_content_digest
from ..blocking import BlockPlan, BlockSpec
from .encoding import ENTROPY_CODED

__all__ = ["BlockResult", "block_entry", "entry_meta", "expand_aliases", "group_identical_blocks"]

#: One encoded block: its block-index entry and its section payload.
BlockResult = Tuple[Dict[str, Any], bytes]


def block_entry(
    spec: BlockSpec,
    predictor: str,
    entropy: str = "none",
    codebook: Optional[str] = None,
    alias_of: Optional[int] = None,
) -> Dict[str, Any]:
    """The block-index entry of ``spec``.

    ``entropy``/``codebook`` record the codec that wrote the section and
    whose model it used (``"shared"`` / ``"block"``); an alias keeps its
    own geometry but names the representative (``alias_of``) whose
    section the decoder reads instead.
    """
    entry = spec.as_dict()
    entry["predictor"] = predictor
    entry["section"] = f"block:{spec.block_id if alias_of is None else alias_of}"
    if alias_of is not None:
        entry["alias_of"] = int(alias_of)
    if entropy in ENTROPY_CODED:
        entry["entropy"] = entropy
        entry["codebook"] = codebook
    return entry


def entry_meta(entry: Dict[str, Any]) -> Dict[str, Any]:
    """The position-independent part of an entry, as :func:`block_entry` keywords.

    This is what the block store keeps beside a payload and what an
    alias copies from its representative.
    """
    return {key: entry[key] for key in ("predictor", "entropy", "codebook") if entry.get(key)}


def group_identical_blocks(
    arr: np.ndarray, plan: BlockPlan
) -> Tuple[List[BlockSpec], Dict[int, int], Dict[int, str], Dict[int, int]]:
    """Group the plan's blocks by raw content.

    Returns ``(reps, alias_of, digests, counts)``: the first occurrence
    of each distinct block (in plan order), a map from duplicate block
    ids to their representative's id, each representative's content
    digest (the block-store key ingredient) and its multiplicity.  Only
    representatives are encoded; the multiplicity weights
    shared-codebook frequency pooling so the book stays byte-identical
    to a no-dedup encoding of the array.
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


def expand_aliases(
    plan: BlockPlan, rep_results: Dict[int, BlockResult], alias_of: Dict[int, int]
) -> List[BlockResult]:
    """The full block index, in plan order, from representative results."""
    results: List[BlockResult] = []
    for spec in plan.blocks:
        rep_id = alias_of.get(spec.block_id)
        if rep_id is None:
            results.append(rep_results[spec.block_id])
        else:
            meta = entry_meta(rep_results[rep_id][0])
            results.append((block_entry(spec, alias_of=rep_id, **meta), b""))
    return results
