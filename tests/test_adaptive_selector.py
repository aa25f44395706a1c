"""The adaptive selector: how close its ranking lands, and what it costs.

Adaptive mode ranks a block's candidate predictors on a statistic of
their quantisation codes and encodes only the winner.  Two contracts:

* **quality** — against a *test-side* brute force that really compresses
  every candidate through the public non-adaptive pipelines, the ranking
  gives up at most 1 % of the bytes per application (2 % on any single
  configuration), and it beats the pipeline's own predictor on every
  application where brute force does;
* **cost** — the entropy coder runs exactly once per encoded block, in
  every adaptive mode, and the lossless backend runs once on each
  block's side part, plus one probe and at most one payload deflate (a
  kept payload is deflated with the side part, in the same call; the
  probe, on streams of 4 KiB or more, calls zlib itself); only the
  configured codec's model is built: the predictor is the one thing
  decided per block.

Everything here is deterministic: seeded synthetic fields, byte counts,
call counts; no wall clock.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Tuple

import numpy as np
import pytest

from repro.compression import ErrorBound, create_blocked_compressor
from repro.compression.encoders.huffman import HuffmanCodebook, HuffmanCodec
from repro.compression.encoders.lossless import DeflateBackend
from repro.compression.encoders.rans import RansCodec, RansFrequencyTable
from repro.datasets import application_names, generate_application

#: ``generate_application`` scale per application: a handful of 32-blocks
#: of one field each (hacc is 1-D, so 66 blocks of 32 elements).
SCALES = {"cesm": 0.06, "rtm": 0.15, "miranda": 0.15, "nyx": 0.1,
          "isabel": 0.15, "qmcpack": 0.4, "hacc": 0.00025}
#: The adaptive pipeline (``sz3``: its own predictor is interpolation)
#: and the public pipelines that run each of its candidates alone.
ADAPTIVE, CANDIDATES = "sz3", ("sz3", "sz-lorenzo")
STAGES = ("huffman", "rans")
BOUNDS = (1e-4, 1e-3, 1e-2)
#: ``(rel bound, block size)`` per application: every bound at 32-blocks,
#: plus one 16-block case.
CASES = {app: [(rel, 32) for rel in BOUNDS] for app in SCALES}
CASES["cesm"].append((1e-3, 16))


def _field(app: str) -> np.ndarray:
    dataset = generate_application(app, snapshots=1, scale=SCALES[app], seed=7)
    return np.asarray(dataset.fields[0].data)


def _compress(name: str, data: np.ndarray, rel: float, block: int, **options):
    """One blob; the adaptive ones also check the bound on every element."""
    compressor = create_blocked_compressor(name, block_shape=block, **options)
    verify = bool(options.get("adaptive_predictor"))
    return compressor.compress(data, ErrorBound.relative(rel), verify=verify).blob


def _sections(blob) -> Dict[int, Tuple[str, int]]:
    """``block id -> (entropy codec, section bytes)`` of a blocked blob."""
    return {
        entry["id"]: (entry["entropy"], blob.container.section_size(entry["section"]))
        for entry in blob.block_index
    }


def test_every_application_is_sized():
    assert sorted(SCALES) == sorted(application_names())


@pytest.mark.parametrize("stage", STAGES)
@pytest.mark.parametrize("app", sorted(SCALES))
def test_every_adaptive_block_is_coded_with_the_configured_stage(app, stage):
    """The predictor is the only per-block decision: with per-block
    models too, every block carries the configured codec (the one
    exception, a rANS block too wide for a 12-bit table degrading to
    Huffman, is pinned in ``test_rans.py``)."""
    rel, block = CASES[app][1]
    blob = _compress(ADAPTIVE, _field(app), rel, block, shared_codebook=False,
                     entropy_stage=stage, adaptive_predictor=True)
    assert blob.metadata["block_codecs"] == {stage: blob.num_blocks}
    assert {codec for codec, _ in _sections(blob).values()} == {stage}


@pytest.mark.parametrize("app", sorted(SCALES))
def test_ranking_lands_within_one_percent_of_brute_force_per_block_models(app):
    """Per-block models: a block's section is self-contained, so the
    test-side brute force is exact.  Every candidate predictor is
    compressed alone under the configured codec; per block, the smallest
    of their sections is what encoding every candidate and keeping the
    smaller would have written."""
    data, totals = _field(app), Counter()
    for rel, block in CASES[app]:
        for stage in STAGES:
            alone = [
                _sections(
                    _compress(name, data, rel, block, shared_codebook=False, entropy_stage=stage))
                for name in CANDIDATES
            ]
            adaptive = _compress(ADAPTIVE, data, rel, block, shared_codebook=False,
                                 entropy_stage=stage, adaptive_predictor=True)
            case = Counter()
            for block_id, section in _sections(adaptive).items():
                rivals = [sections[block_id] for sections in alone]
                assert section in rivals  # the winner's codec and bytes are a candidate's, exactly
                sizes = [size for _, size in rivals]
                case.update(adaptive=section[1], brute=min(sizes), own=sizes[0])
            assert case["adaptive"] <= 1.02 * case["brute"], (rel, block, stage, case)
            totals.update(case)
    assert totals["adaptive"] <= 1.01 * totals["brute"], totals
    if totals["brute"] < totals["own"]:  # selection is worth something here: take it
        assert totals["adaptive"] < totals["own"], totals


@pytest.mark.parametrize("app", sorted(SCALES))
def test_adaptive_shared_codebook_blob_beats_the_better_single_predictor(app):
    """Shared codebook (the default, what bulk transfers write): a
    block's bytes depend on the file-wide model, so the brute force is
    per file — each candidate pipeline alone, smaller blob kept."""
    data, totals = _field(app), Counter()
    for rel in BOUNDS[1:]:
        for stage in STAGES:
            alone = [len(_compress(name, data, rel, 32, entropy_stage=stage).to_bytes())
                     for name in CANDIDATES]
            adaptive = len(_compress(ADAPTIVE, data, rel, 32, entropy_stage=stage,
                                     adaptive_predictor=True).to_bytes())
            assert adaptive <= 1.02 * min(alone), (rel, stage, adaptive, alone)
            totals.update(adaptive=adaptive, brute=min(alone), own=alone[0])
    assert totals["adaptive"] <= 1.01 * totals["brute"], totals
    if totals["brute"] < totals["own"]:
        assert totals["adaptive"] < totals["own"], totals


# --------------------------------------------------------------------------- #
# Encode once
# --------------------------------------------------------------------------- #
def _walk_field() -> np.ndarray:
    """48x48 random walk whose last block column repeats the first: 9 blocks,
    each encoded, the repeats too."""
    steps = np.random.default_rng(11).integers(-(1 << 12), 1 << 12, size=(48, 48))
    field = (np.cumsum(steps, axis=1) / 1024.0).astype(np.float32)
    field[:, 32:] = field[:, :16]
    return field


@pytest.fixture
def kernel_calls(monkeypatch) -> Counter:
    """Counts entropy-coded streams written, and lossless compresses.

    A rANS file's streams are written by one ``encode_streams`` batch, so
    each stream it writes counts, not each call."""
    calls: Counter = Counter()

    def counting(owner, attr, label, written=lambda result: result is not None):
        real = getattr(owner, attr)

        def spy(self, *args):
            result = real(self, *args)
            calls[label] += written(result)  # None: the shared model did not cover the block
            return result

        monkeypatch.setattr(owner, attr, spy)

    counting(HuffmanCodec, "encode_with_book", "entropy")
    counting(RansCodec, "encode_streams", "entropy",
             written=lambda payloads: sum(p is not None for p in payloads))
    counting(DeflateBackend, "compress", "lossless")
    return calls


@pytest.mark.parametrize("stage", STAGES)
@pytest.mark.parametrize("shared", [False, True], ids=["per-block", "shared"])
def test_bulk_adaptive_encodes_each_block_once(kernel_calls, stage, shared):
    compressor = create_blocked_compressor(
        "sz3", block_shape=16, adaptive_predictor=True, shared_codebook=shared, entropy_stage=stage
    )
    field = _walk_field()
    compressor.compress(field, ErrorBound.relative(1e-3), verify=False)
    assert compressor.block_plan(field).num_blocks == 9
    assert kernel_calls == {"entropy": 9, "lossless": 9}


@pytest.mark.parametrize("stage", STAGES)
def test_a_block_builds_only_the_configured_codecs_model(monkeypatch, stage):
    """Per-block models: one model per encoded block, the configured
    codec's — a rANS-coded block builds no Huffman book beside its table."""
    built: Counter = Counter()
    for label, owner, attr in (("huffman", HuffmanCodebook, "from_frequencies"),
                               ("rans", RansFrequencyTable, "try_from_frequencies")):
        def spy(*args, _real=getattr(owner, attr), _label=label, **kwargs):
            built[_label] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(owner, attr, spy)
    compressor = create_blocked_compressor(
        "sz3", block_shape=16, adaptive_predictor=True, shared_codebook=False, entropy_stage=stage
    )
    field = _walk_field()
    compressor.compress(field, ErrorBound.relative(1e-3), verify=False)
    assert built == {stage: compressor.block_plan(field).num_blocks}


@pytest.mark.parametrize("stage", STAGES)
@pytest.mark.parametrize("shared", [False, True], ids=["per-block", "shared"])
def test_streamed_adaptive_encodes_each_block_once(kernel_calls, stage, shared):
    """The streamed path's two calls: sample the shared model, then one
    ``encode_one_block`` per block, including the blocks the sampled
    model does not cover."""
    field = _walk_field()
    compressor = create_blocked_compressor(
        "sz3", block_shape=16, adaptive_predictor=True, shared_codebook=shared, entropy_stage=stage
    )
    plan = compressor.block_plan(field)
    book = compressor.prepare_shared_codebook(field, plan, 0.02, max_sample_blocks=2)
    assert (book is not None) == shared
    assert kernel_calls == {}  # sampling ranks and pools; it codes nothing
    entries = [compressor.encode_one_block(field, plan, spec, 0.02, book)[0] for spec in plan]
    assert kernel_calls == {"entropy": 9, "lossless": 9}
    if shared:  # two sampled blocks cannot cover all nine alphabets
        assert {entry["codebook"] for entry in entries} == {"shared", "block"}


def test_the_sampled_shared_model_is_seeded_through_the_selector():
    """Sample every block and none may escape: the streamed path's model
    holds the symbols of the predictor each block will really be coded
    with (Lorenzo, on CESM), not those of the pipeline's own."""
    data = _field("cesm")
    compressor = create_blocked_compressor("sz3", block_shape=32, adaptive_predictor=True)
    plan = compressor.block_plan(data)
    bound = ErrorBound.relative(1e-3).absolute_for(data)
    book = compressor.prepare_shared_codebook(data, plan, bound, max_sample_blocks=plan.num_blocks)
    entries = [compressor.encode_one_block(data, plan, spec, bound, book)[0] for spec in plan]
    assert "lorenzo" in {entry["predictor"] for entry in entries}
    assert {entry["codebook"] for entry in entries} == {"shared"}
