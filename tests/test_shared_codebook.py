"""Shared per-file codebook tests.

Blocked Huffman pipelines build one entropy codebook per file, store it
once in the blob header, and encode every block against it.  These tests
pin the on-the-wire guarantees: round trips through ``decompress``,
random-access ``decompress_block`` and the streaming ``assemble`` path;
the per-block fallback when a block's alphabet escapes the shared book;
size wins over the per-block layout; and unchanged decodability of
per-block-codebook blobs from earlier revisions.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.compression import (
    BlockPlan,
    CompressedBlob,
    ErrorBound,
    create_blocked_compressor,
    create_compressor,
)
from repro.compression.encoders import huffman_decode
from repro.compression.encoders.huffman import HuffmanCodebook
from repro.compression.encoders.lossless import get_lossless_backend
from repro.compression.interface import SectionContainer
from repro.compression.sz.encoding import open_section
from repro.core import Ocelot, OcelotConfig
from repro.datasets import generate_application
from repro.errors import CompressionError

BOUND = ErrorBound(value=1e-3, mode="abs")


def _field(shape=(96, 80), seed=0) -> np.ndarray:
    x = np.linspace(0, 4 * np.pi, shape[0])
    y = np.linspace(0, 3 * np.pi, shape[1])
    base = np.sin(x)[:, None] * np.cos(y)[None, :]
    noise = np.random.default_rng(seed).normal(0, 0.01, shape)
    return (base + noise).astype(np.float32)


def _shared_pipeline(name="sz3", block_shape=32):
    return create_compressor(name).configure_blocks(
        block_shape=block_shape, shared_codebook=True
    )


class TestSharedRoundTrips:
    @pytest.mark.parametrize("name", ["sz2", "sz3", "sz3-linear", "sz-lorenzo"])
    def test_decompress_round_trip(self, name):
        data = _field()
        blob = _shared_pipeline(name).compress(data, BOUND).blob
        assert blob.codebook_mode == "shared"
        assert blob.shared_codebook_bytes is not None
        parsed = CompressedBlob.from_bytes(blob.to_bytes())
        recon = create_compressor(name).decompress(parsed)
        assert np.abs(data.astype(np.float64) - recon.astype(np.float64)).max() <= 1e-3 * 1.01

    def test_shared_codebook_deserializes_to_valid_book(self):
        blob = _shared_pipeline().compress(_field(), BOUND).blob
        book = HuffmanCodebook.deserialize(blob.shared_codebook_bytes)
        assert book.symbols.size
        assert book.max_length() <= 16

    def test_random_access_block_decode(self):
        data = _field()
        payload = _shared_pipeline().compress(data, BOUND).blob.to_bytes()
        full = create_compressor("sz3").decompress(CompressedBlob.from_bytes(payload))
        plan = BlockPlan.partition(data.shape, 32)
        decoder = create_compressor("sz3")
        for spec in plan:
            lazy = CompressedBlob.from_bytes(payload)
            block = decoder.decompress_block(lazy, spec.block_id)
            np.testing.assert_array_equal(block, full[spec.slices()])

    def test_random_access_stays_lazy(self):
        payload = _shared_pipeline().compress(_field(), BOUND).blob.to_bytes()
        blob = CompressedBlob.from_bytes(payload)
        target = blob.num_blocks - 1
        create_compressor("sz3").decompress_block(blob, target)
        # The shared codebook lives in the header; decoding one block must
        # not have materialised any other block's section.
        assert blob.container.loaded_section_names() == [f"block:{target}"]

    def test_export_parse_assemble_round_trip(self):
        data = _field()
        source = _shared_pipeline().compress(data, BOUND).blob
        header = None
        received = []
        for message in reversed(
            [source.export_block(i) for i in range(source.num_blocks)]
        ):
            blob_header, entry, payload = CompressedBlob.parse_block(message)
            header = header or blob_header
            received.append((entry, payload))
        assembled = CompressedBlob.assemble(header, received)
        assert assembled.codebook_mode == "shared"
        assert assembled.to_bytes() == source.to_bytes()
        recon = create_compressor("sz3").decompress(assembled)
        assert np.abs(data.astype(np.float64) - recon.astype(np.float64)).max() <= 1e-3 * 1.01


class TestFallbackAndCompat:
    def test_per_block_blobs_remain_decodable(self):
        # A blob written with per-block codebooks (the PR 1-2 layout) must
        # decode through a shared-default pipeline unchanged.
        data = _field()
        legacy = (
            create_compressor("sz3")
            .configure_blocks(block_shape=32, shared_codebook=False)
            .compress(data, BOUND)
            .blob
        )
        assert legacy.codebook_mode == "per-block"
        assert legacy.shared_codebook_bytes is None
        recon = create_compressor("sz3").decompress(
            CompressedBlob.from_bytes(legacy.to_bytes())
        )
        assert np.abs(data.astype(np.float64) - recon.astype(np.float64)).max() <= 1e-3 * 1.01

    def test_escaped_block_falls_back_to_own_codebook(self):
        # A shared book covering only symbol 0 cannot encode real blocks:
        # every block must fall back to its per-block codebook and still
        # round-trip.
        data = _field()
        pipeline = _shared_pipeline()
        plan = pipeline.block_plan(data)
        tiny_book = HuffmanCodebook(symbols=[0], lengths=[1])
        results = [
            pipeline.encode_one_block(data, plan, spec, 1e-3, shared_book=tiny_book)
            for spec in plan
        ]
        assert all(entry["codebook"] == "block" for entry, _ in results)
        header = pipeline.blocked_header(data, plan, 1e-3, shared_book=tiny_book)
        blob = CompressedBlob.assemble(header, results)
        recon = create_compressor("sz3").decompress(
            CompressedBlob.from_bytes(blob.to_bytes())
        )
        assert np.abs(data.astype(np.float64) - recon.astype(np.float64)).max() <= 1e-3 * 1.01

    def test_mixed_blob_records_codebook_per_entry(self):
        blob = _shared_pipeline().compress(_field(), BOUND).blob
        assert all(entry["codebook"] == "shared" for entry in blob.block_index)

    def test_missing_shared_book_fails_loudly(self):
        blob = _shared_pipeline().compress(_field(), BOUND).blob
        parsed = CompressedBlob.from_bytes(blob.to_bytes())
        del parsed.container.header["shared_codebook"]
        with pytest.raises(CompressionError):
            create_compressor("sz3").decompress(parsed)

    def test_shared_blob_is_smaller(self):
        data = _field((128, 128))
        shared = _shared_pipeline(block_shape=16).compress(data, BOUND).blob
        per_block = (
            create_compressor("sz3")
            .configure_blocks(block_shape=16, shared_codebook=False)
            .compress(data, BOUND)
            .blob
        )
        assert shared.nbytes < per_block.nbytes


def _without_sync_index(payload: bytes) -> tuple:
    """``payload`` as an older build wrote it, and how many indexes that removed.

    Every section of the outer container is one encoding's inner
    container behind the lossless stage, opened as every reader opens it
    and written back whole, as older builds wrote it; the index is that
    container's ``codes_sync`` section and ``huffman_sync_every`` header key.
    """
    blob = CompressedBlob.from_bytes(payload)
    backend = get_lossless_backend(blob.container.header["lossless_backend"])
    removed = 0
    for name in blob.container.section_names():
        inner = open_section(blob, name)
        bare = SectionContainer(
            {k: v for k, v in inner.header.items() if k != "huffman_sync_every"}
        )
        for section in inner.section_names():
            if section == "codes_sync":
                removed += 1
            else:
                bare.add_section(section, inner.get_section(section))
        blob.container.add_section(name, backend.compress(bare.to_bytes()), overwrite=True)
    return blob.to_bytes(), removed


@pytest.mark.parametrize("min_bytes", [0, 1 << 40], ids=["lockstep", "pointer-jumping"])
class TestSyncIndex:
    """A blob decodes to the same array with its Huffman sync index, without it,
    and on either walk (``min_bytes`` forces the lanes, or rules them out)."""

    def test_shared_codebook_blob_without_the_index(self, monkeypatch, min_bytes):
        monkeypatch.setattr(huffman_decode, "_LOCKSTEP_MIN_BYTES", min_bytes)
        data = _field()
        payload = _shared_pipeline().compress(data, BOUND).blob.to_bytes()
        legacy, removed = _without_sync_index(payload)
        assert removed == CompressedBlob.from_bytes(payload).num_blocks  # 512+ symbols each
        assert len(legacy) < len(payload)
        decoder = create_compressor("sz3")
        full = decoder.decompress(CompressedBlob.from_bytes(payload))
        np.testing.assert_array_equal(decoder.decompress(CompressedBlob.from_bytes(legacy)), full)
        for spec in BlockPlan.partition(data.shape, 32):
            for stored in (payload, legacy):
                lazy = CompressedBlob.from_bytes(stored)
                block = decoder.decompress_block(lazy, spec.block_id)
                np.testing.assert_array_equal(block, full[spec.slices()])
                assert lazy.container.loaded_section_names() == [f"block:{spec.block_id}"]

    def test_whole_array_blob_without_the_index(self, monkeypatch, min_bytes):
        monkeypatch.setattr(huffman_decode, "_LOCKSTEP_MIN_BYTES", min_bytes)
        compressor = create_compressor("sz3")
        payload = compressor.compress(_field(), BOUND).blob.to_bytes()
        legacy, removed = _without_sync_index(payload)
        assert removed == 1
        np.testing.assert_array_equal(
            compressor.decompress(CompressedBlob.from_bytes(legacy)),
            compressor.decompress(CompressedBlob.from_bytes(payload)),
        )

    def test_blocks_of_one_lane_carry_no_index(self, monkeypatch, min_bytes):
        monkeypatch.setattr(huffman_decode, "_LOCKSTEP_MIN_BYTES", min_bytes)
        data = _field()
        payload = _shared_pipeline(block_shape=16).compress(data, BOUND).blob.to_bytes()
        assert _without_sync_index(payload)[1] == 0  # 256 symbols a block
        recon = create_compressor("sz3").decompress(CompressedBlob.from_bytes(payload))
        assert np.abs(data.astype(np.float64) - recon.astype(np.float64)).max() <= 1e-3 * 1.01


class TestStreamingSharedCodebook:
    @pytest.mark.parametrize("adaptive", [False, True], ids=["fixed", "adaptive"])
    @pytest.mark.parametrize("shared", [True, False], ids=["shared", "per-block"])
    @pytest.mark.parametrize("stage", ["huffman", "rans"])
    def test_encode_blocks_writes_the_sections_compress_writes(self, stage, shared, adaptive):
        """One block encode: the ``(entry, payload)`` pairs the stream ships
        are the sections ``compress`` assembles, model and all, and with a
        shared model no block falls back to its own."""
        data = _field()
        pipeline = create_blocked_compressor(
            "sz3", block_shape=32, shared_codebook=shared, adaptive_predictor=adaptive,
            entropy_stage=stage,
        )
        blob = pipeline.compress(data, BOUND).blob
        header, blocks = pipeline.encode_blocks(data, 1e-3)
        assert blob.num_blocks == len(blocks) == 9
        assert blocks == [
            (entry, blob.container.get_section(entry["section"])) for entry in blob.block_index
        ]
        assert {entry["codebook"] for entry, _ in blocks} == {"shared" if shared else "block"}
        assert "block_codecs" not in header["metadata"]  # only ``compress`` tallies codecs
        streamed = CompressedBlob.assemble(header, blocks)
        assert streamed.shared_codebook_bytes == blob.shared_codebook_bytes
        assert (blob.shared_codebook_bytes is not None) == shared
        np.testing.assert_array_equal(pipeline.decompress(streamed), pipeline.decompress(blob))

    def test_streamed_transfer_mode_round_trips(self):
        dataset = generate_application("cesm", snapshots=1, scale=0.03)
        config = OcelotConfig(
            compressor="sz3",
            block_size=24,
            transfer_mode="streamed",
            shared_codebook=True,
        )
        report = Ocelot(config).transfer_dataset(
            dataset, "anvil", "cori", mode="compressed"
        )
        assert report.measured_psnr_db is None or report.measured_psnr_db > 40

    def test_entropy_none_blocks_carry_no_model(self):
        data = _field()
        pipeline = create_compressor("sz3-fast").configure_blocks(block_shape=32)
        header, blocks = pipeline.encode_blocks(data, 1e-3)
        assert "shared_codebook" not in header
        assert not any("codebook" in entry for entry, _ in blocks)
        assert pipeline.compress(data, BOUND).blob.codebook_mode == "none"


class TestKnobWiring:
    def test_registry_knob_disables_sharing(self):
        compressor = create_blocked_compressor(
            "sz3", block_shape=32, shared_codebook=False
        )
        blob = compressor.compress(_field(), BOUND).blob
        assert blob.codebook_mode == "per-block"

    def test_describe_reports_shared_codebook(self):
        assert _shared_pipeline().describe()["shared_codebook"] is True
        fast = create_compressor("sz3-fast").configure_blocks(block_shape=16)
        assert fast.describe()["shared_codebook"] is False

    def test_cli_codebook_flag(self, tmp_path, capsys):
        import json

        from repro.cli import main

        path = tmp_path / "field.npy"
        np.save(path, _field((48, 48)))
        for choice, expected in [("shared", "shared"), ("per-block", "per-block")]:
            code = main([
                "compress", "--input", str(path), "--compressor", "sz3",
                "--block-size", "16", "--codebook", choice, "--json",
            ])
            assert code == 0
            assert json.loads(capsys.readouterr().out)["num_blocks"] == 9


class TestInspectCodebook:
    def test_inspect_reports_shared_codebook(self, tmp_path, capsys):
        import json

        from repro.cli import main

        blob = _shared_pipeline().compress(_field(), BOUND).blob
        path = tmp_path / "shared.sz"
        path.write_bytes(blob.to_bytes())
        assert main(["inspect", str(path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["codebook"]["mode"] == "shared"
        assert payload["codebook"]["codebook_bytes"] > 0
        assert payload["blocks"][0]["codebook"] == "shared"

    def test_inspect_reports_per_block_codebooks(self, tmp_path, capsys):
        import json

        from repro.cli import main

        blob = (
            create_compressor("sz3")
            .configure_blocks(block_shape=32, shared_codebook=False)
            .compress(_field(), BOUND)
            .blob
        )
        path = tmp_path / "perblock.sz"
        path.write_bytes(blob.to_bytes())
        assert main(["inspect", str(path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["codebook"]["mode"] == "per-block"
        assert payload["codebook"]["codebook_bytes"] > 0
        assert payload["codebook"]["blocks_with_own_codebook"] == len(payload["blocks"])

    def test_inspect_counts_fallback_codebooks_in_shared_mode(self, tmp_path, capsys):
        import json

        from repro.cli import main

        # Every block escapes this degenerate shared book, so the blob is
        # "shared" by header but all blocks carry their own codebook; the
        # summary must count those, not just the header book.
        data = _field()
        pipeline = _shared_pipeline()
        plan = pipeline.block_plan(data)
        tiny_book = HuffmanCodebook(symbols=[0], lengths=[1])
        results = [
            pipeline.encode_one_block(data, plan, spec, 1e-3, shared_book=tiny_book)
            for spec in plan
        ]
        header = pipeline.blocked_header(data, plan, 1e-3, shared_book=tiny_book)
        blob = CompressedBlob.assemble(header, results)
        path = tmp_path / "mixed.sz"
        path.write_bytes(blob.to_bytes())
        assert main(["inspect", str(path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["codebook"]["mode"] == "shared"
        assert payload["codebook"]["blocks_with_own_codebook"] == len(payload["blocks"])
        # header book (16 bytes raw) plus every block's own codebook
        assert payload["codebook"]["codebook_bytes"] > 16

    def test_inspect_counts_one_escaped_block_and_per_block_rans_tables(self, tmp_path, capsys):
        import json

        from repro.cli import main

        data, pipeline = _field(), _shared_pipeline()
        book = HuffmanCodebook.deserialize(pipeline.compress(data, BOUND).blob.shared_codebook_bytes)
        plan = pipeline.block_plan(data)
        results = [
            pipeline.encode_one_block(
                data, plan, spec, 1e-3,
                shared_book=HuffmanCodebook(symbols=[0], lengths=[1]) if i == 0 else book,
            )
            for i, spec in enumerate(plan)
        ]
        escaped = CompressedBlob.assemble(
            pipeline.blocked_header(data, plan, 1e-3, shared_book=book), results
        )
        rans = create_blocked_compressor(
            "sz3", block_shape=32, shared_codebook=False, entropy_stage="rans"
        ).compress(data, BOUND).blob
        summaries = []
        for name, blob in (("escaped", escaped), ("rans", rans)):
            path = tmp_path / f"{name}.sz"
            path.write_bytes(blob.to_bytes())
            assert main(["inspect", str(path), "--json"]) == 0
            summaries.append(json.loads(capsys.readouterr().out)["codebook"])
        assert summaries[0]["mode"] == "shared"
        assert summaries[0]["blocks_with_own_codebook"] == 1
        assert summaries[0]["codebook_bytes"] > len(escaped.shared_codebook_bytes)
        assert summaries[1]["mode"] == "per-block"
        assert summaries[1]["blocks_with_own_codebook"] == rans.num_blocks
        assert summaries[1]["codebook_bytes"] > 0
