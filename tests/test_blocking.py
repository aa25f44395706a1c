"""Block layer tests: partitioning, blob format v2, per-block round trips.

Covers the invariants the blocked compression engine relies on:

* a :class:`BlockPlan` tiles the array exactly (disjoint cover, edge
  blocks clipped);
* every pipeline round-trips within the absolute error bound in block
  mode for 1-D/2-D/3-D arrays with odd shapes, both smaller and larger
  than one block;
* NaN blocks fall back to literal storage and survive the round trip;
* v1 (whole-array) blobs still decode;
* ``CompressedBlob.nbytes`` never re-serialises the payload sections.
"""

from __future__ import annotations

import json
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.compression import (
    BlockPlan,
    BlockSpec,
    CompressedBlob,
    ErrorBound,
    SectionContainer,
    create_compressor,
    normalize_block_shape,
)
from repro.compression.blocking import BlockShapeLike  # noqa: F401  (public alias)
from repro.core import OcelotConfig, Ocelot, ParallelExecutor
from repro.datasets import generate_application
from repro.errors import CompressionError

PIPELINES = ["sz-lorenzo", "sz3", "sz3-linear", "sz2", "zfp-like", "sz3-fast"]

MODERATE = settings(
    max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def _round_trip(name: str, data: np.ndarray, bound_abs: float, **block_kwargs):
    compressor = create_compressor(name).configure_blocks(**block_kwargs)
    result = compressor.compress(data, ErrorBound(value=bound_abs, mode="abs"))
    # Decode from the serialised bytes with a *fresh* compressor so the
    # round trip exercises the on-the-wire format, not shared state.
    blob = CompressedBlob.from_bytes(result.blob.to_bytes())
    recon = create_compressor(name).decompress(blob)
    return blob, recon


# --------------------------------------------------------------------------- #
# BlockPlan partitioning
# --------------------------------------------------------------------------- #
class TestBlockPlan:
    def test_exact_tiling_with_edge_blocks(self):
        plan = BlockPlan.partition((10, 7), 4)
        assert plan.grid_shape == (3, 2)
        assert plan.num_blocks == 6
        covered = np.zeros((10, 7), dtype=int)
        for spec in plan:
            covered[spec.slices()] += 1
        assert (covered == 1).all()
        edge = plan.blocks[-1]
        assert edge.origin == (8, 4) and edge.shape == (2, 3)

    def test_block_larger_than_array_is_clipped(self):
        plan = BlockPlan.partition((5,), 100)
        assert plan.num_blocks == 1
        assert plan.blocks[0].shape == (5,)

    def test_rejects_bad_shapes(self):
        with pytest.raises(CompressionError):
            BlockPlan.partition((8, 8), (4,))
        with pytest.raises(CompressionError):
            BlockPlan.partition((8,), 0)
        with pytest.raises(CompressionError):
            BlockPlan.partition((), 4)

    def test_normalize_block_shape(self):
        assert normalize_block_shape((10, 6), 4) == (4, 4)
        assert normalize_block_shape((10, 6), (20, 3)) == (10, 3)

    def test_spec_dict_round_trip(self):
        spec = BlockSpec(block_id=3, origin=(4, 0), shape=(2, 3))
        assert BlockSpec.from_dict(spec.as_dict()) == spec
        assert spec.num_elements == 6

    def test_assemble_inverts_extract(self):
        rng = np.random.default_rng(0)
        arr = rng.standard_normal((9, 5, 7))
        plan = BlockPlan.partition(arr.shape, (4, 2, 3))
        blocks = {spec.block_id: plan.extract(arr, spec) for spec in plan}
        np.testing.assert_array_equal(plan.assemble(blocks, dtype=arr.dtype), arr)

    @given(
        shape=st.lists(st.integers(1, 17), min_size=1, max_size=3),
        block=st.integers(1, 8),
    )
    @MODERATE
    def test_property_disjoint_cover(self, shape, block):
        plan = BlockPlan.partition(tuple(shape), block)
        covered = np.zeros(tuple(shape), dtype=int)
        for spec in plan:
            assert all(s >= 1 for s in spec.shape)
            covered[spec.slices()] += 1
        assert (covered == 1).all()


# --------------------------------------------------------------------------- #
# Blocked round trips for every pipeline
# --------------------------------------------------------------------------- #
class TestBlockedRoundTrip:
    @pytest.mark.parametrize("name", PIPELINES)
    @pytest.mark.parametrize(
        "shape,block",
        [
            ((41,), 8),          # 1-D, odd, many blocks
            ((5,), 8),           # 1-D smaller than one block
            ((13, 11), 6),       # 2-D odd with edge blocks
            ((7, 9, 5), 4),      # 3-D odd
        ],
    )
    def test_error_bound_holds_per_block(self, name, shape, block):
        rng = np.random.default_rng(hash((name, shape)) % (2**32))
        data = rng.standard_normal(shape).astype(np.float32).cumsum(axis=0)
        bound = 1e-3
        blob, recon = _round_trip(name, data, bound, block_shape=block)
        assert recon.shape == data.shape
        assert recon.dtype == data.dtype
        err = np.abs(data.astype(np.float64) - recon.astype(np.float64))
        # Per-block bound: check every block of the reconstruction.
        plan = BlockPlan.partition(data.shape, block)
        for spec in plan:
            assert err[spec.slices()].max() <= bound * (1 + 1e-6) + 1e-7
        assert blob.num_blocks == plan.num_blocks

    @given(
        shape=st.sampled_from([(23,), (9, 14), (6, 5, 7)]),
        seed=st.integers(0, 2**16),
        bound=st.sampled_from([1e-2, 1e-3, 1e-4]),
    )
    @MODERATE
    def test_property_lorenzo_blocked(self, shape, seed, bound):
        rng = np.random.default_rng(seed)
        data = rng.uniform(-5, 5, size=shape)
        blob, recon = _round_trip("sz-lorenzo-fast", data, bound, block_shape=4)
        assert np.abs(data - recon).max() <= bound * (1 + 1e-9)
        assert blob.format_version == 3

    def test_nan_blocks_fall_back_to_literals(self):
        rng = np.random.default_rng(7)
        data = rng.standard_normal((16, 16))
        data[:8, :8] = np.nan
        data[3, 12] = np.inf
        blob, recon = _round_trip("sz-lorenzo", data, 1e-4, block_shape=8)
        finite = np.isfinite(data)
        np.testing.assert_array_equal(np.isnan(recon), np.isnan(data))
        np.testing.assert_array_equal(np.isinf(recon), np.isinf(data))
        assert np.abs(data[finite] - recon[finite]).max() <= 1e-4 * (1 + 1e-9)

    def test_decoder_rebuilds_predictor_from_block_meta(self):
        # The decoder must honour the predictor parameters recorded per
        # block, not its own registry defaults: compress with a
        # non-default regression window and decode with a default sz2.
        rng = np.random.default_rng(19)
        data = rng.standard_normal((32, 32)).cumsum(axis=0)
        bound = ErrorBound(value=1e-3, mode="abs")
        encoder = create_compressor("sz2", block_size=4).configure_blocks(block_shape=16)
        payload = encoder.compress(data, bound).blob.to_bytes()
        recon = create_compressor("sz2").decompress(CompressedBlob.from_bytes(payload))
        assert np.abs(data - recon).max() <= 1e-3 * (1 + 1e-9)

    def test_blocked_blob_header_records_block_index(self):
        data = np.linspace(0, 1, 64).reshape(8, 8)
        blob, _ = _round_trip("sz3", data, 1e-3, block_shape=4)
        index = blob.block_index
        assert len(index) == 4
        assert {entry["section"] for entry in index} == {
            f"block:{i}" for i in range(4)
        }
        assert all(entry["predictor"] for entry in index)
        assert blob.container.header["block_shape"] == [4, 4]


# --------------------------------------------------------------------------- #
# Adaptive per-block predictor selection
# --------------------------------------------------------------------------- #
class TestAdaptivePredictor:
    def test_adaptive_selection_round_trips_and_records_choice(self):
        rng = np.random.default_rng(11)
        x = np.linspace(0, 6 * np.pi, 48)
        smooth = np.sin(x)[:, None] * np.cos(x)[None, :]
        noisy = rng.standard_normal((48, 48))
        data = np.where(np.arange(48)[:, None] < 24, smooth, noisy)
        blob, recon = _round_trip(
            "sz3", data, 1e-3, block_shape=12, adaptive_predictor=True
        )
        chosen = {entry["predictor"] for entry in blob.block_index}
        assert chosen <= {"lorenzo", "interpolation"}
        assert np.abs(data - recon).max() <= 1e-3 * (1 + 1e-9)

    def test_adaptive_keeps_the_smaller_encoding(self):
        # Adaptive mode may never do worse than the pipeline's own
        # predictor on the same partition: it keeps the per-block minimum.
        rng = np.random.default_rng(13)
        data = rng.standard_normal((40, 40)).cumsum(axis=0).cumsum(axis=1)
        fixed = create_compressor("sz3").configure_blocks(block_shape=10)
        adaptive = create_compressor("sz3").configure_blocks(
            block_shape=10, adaptive_predictor=True
        )
        bound = ErrorBound(value=1e-3, mode="abs")
        fixed_bytes = fixed.compress(data, bound).blob.nbytes
        adaptive_bytes = adaptive.compress(data, bound).blob.nbytes
        # Allow slack for the slightly larger header (predictor names).
        assert adaptive_bytes <= fixed_bytes * 1.05

    def test_adaptive_handles_nan_blocks(self):
        data = np.full((12, 12), np.nan)
        data[6:, :] = np.linspace(0, 1, 72).reshape(6, 12)
        blob, recon = _round_trip(
            "sz3", data, 1e-3, block_shape=6, adaptive_predictor=True
        )
        np.testing.assert_array_equal(np.isnan(recon), np.isnan(data))
        # Only Lorenzo's literal fallback takes a non-finite block: no ranking.
        nan_blocks = [e for e in blob.block_index if e["origin"][0] == 0]
        assert [e["predictor"] for e in nan_blocks] == ["lorenzo", "lorenzo"]


# --------------------------------------------------------------------------- #
# Blob format v1 compatibility and nbytes
# --------------------------------------------------------------------------- #
class TestBlobFormat:
    def _as_v1(self, payload: bytes) -> bytes:
        """The container re-framed as version 1 wrote it: a u32 header length,
        then the header as JSON with a ``{"name", "size"}`` section table."""
        container = SectionContainer.from_bytes(payload)
        names = container.section_names()
        header = dict(container.header)
        header["_sections"] = [{"name": n, "size": container.section_size(n)} for n in names]
        text = json.dumps(header, sort_keys=True).encode()
        return b"".join(
            [b"OCLT", struct.pack("<II", 1, len(text)), text]
            + [container.get_section(n) for n in names]
        )

    def test_v1_blob_still_decodes(self):
        rng = np.random.default_rng(3)
        data = rng.standard_normal((31, 17)).astype(np.float32)
        compressor = create_compressor("sz3-fast")
        result = compressor.compress(data, ErrorBound(value=1e-3, mode="abs"))
        v1_bytes = self._as_v1(result.blob.to_bytes())
        blob = CompressedBlob.from_bytes(v1_bytes)
        assert blob.format_version == 1
        assert blob.num_blocks == 1
        recon = create_compressor("sz3-fast").decompress(blob)
        assert np.abs(data.astype(np.float64) - recon).max() <= 1e-3 * (1 + 1e-6)

    def test_v1_nbytes_matches_serialization(self):
        container = SectionContainer(header={"k": "v"})
        container.add_section("payload", b"x" * 1000)
        blob = CompressedBlob(
            compressor="sz3", shape=(10,), dtype="float32",
            error_bound_abs=1e-3, container=container,
        )
        parsed = CompressedBlob.from_bytes(self._as_v1(blob.to_bytes()))
        # A v1 blob re-serialises as version 3, and nbytes counts what that writes.
        assert parsed.nbytes == len(parsed.to_bytes()) == len(blob.to_bytes())

    def test_nbytes_equals_serialized_length(self):
        rng = np.random.default_rng(5)
        data = rng.standard_normal((29, 23))
        for kwargs in ({}, {"block_shape": 8}):
            compressor = create_compressor("sz3-fast").configure_blocks(**kwargs)
            blob = compressor.compress(data, ErrorBound(value=1e-3, mode="abs")).blob
            assert blob.nbytes == len(blob.to_bytes())

    def test_nbytes_does_not_reserialize_sections(self, monkeypatch):
        container = SectionContainer(header={})
        container.add_section("payload", b"y" * 4096)
        blob = CompressedBlob(
            compressor="sz3", shape=(1024,), dtype="float32",
            error_bound_abs=1e-3, container=container,
        )
        expected = len(blob.to_bytes())

        def boom(self):
            raise AssertionError("nbytes must not call SectionContainer.to_bytes")

        monkeypatch.setattr(SectionContainer, "to_bytes", boom)
        assert blob.nbytes == expected

    def test_unsupported_version_rejected(self):
        container = SectionContainer(header={})
        container.add_section("payload", b"z")
        payload = container.to_bytes()
        bad = payload[:4] + struct.pack("<I", 99) + payload[8:]
        with pytest.raises(Exception):
            SectionContainer.from_bytes(bad)


# --------------------------------------------------------------------------- #
# Parallel execution and orchestration
# --------------------------------------------------------------------------- #
class TestParallelBlocks:
    def test_map_blocks_preserves_order(self):
        executor = ParallelExecutor(block_workers=4)
        items = list(range(64))
        assert executor.map_blocks(lambda x: x * x, items) == [x * x for x in items]

    def test_map_blocks_serial_when_single_worker(self):
        executor = ParallelExecutor()
        assert executor.block_workers == 1
        assert executor.map_blocks(lambda x: -x, [1, 2]) == [-1, -2]

    def test_blocked_compression_through_executor_matches_serial(self):
        rng = np.random.default_rng(17)
        bound = ErrorBound(value=1e-3, mode="abs")
        # 16^2 blocks run inline whatever the executor; 128x1024 blocks sit
        # on the pool grain, so the second case really crosses threads.
        for shape, block_shape, pooled in [
            ((64, 64), (16, 16), False),
            ((512, 1024), (128, 1024), True),
        ]:
            data = rng.standard_normal(shape).cumsum(axis=0)
            serial = create_compressor("sz-lorenzo-fast").configure_blocks(
                block_shape=block_shape
            )
            calls = []

            def executor(func, items, pool=ParallelExecutor(block_workers=4), calls=calls):
                calls.append(len(items))
                return pool.map_blocks(func, items)

            threaded = create_compressor("sz-lorenzo-fast").configure_blocks(
                block_shape=block_shape, block_executor=executor
            )
            blob_s = serial.compress(data, bound).blob
            blob_t = threaded.compress(data, bound).blob
            assert bool(calls) == pooled
            assert blob_s.to_bytes() == blob_t.to_bytes()
            recon = threaded.decompress(CompressedBlob.from_bytes(blob_t.to_bytes()))
            assert np.abs(data - recon).max() <= 1e-3 * (1 + 1e-9)

    def test_executor_only_sees_blocks_at_or_above_the_grain(self):
        from repro.compression.sz.pipeline import _POOL_GRAIN_ELEMENTS

        calls = []

        def spy(func, items):
            calls.append(len(items))
            return [func(item) for item in items]

        rng = np.random.default_rng(3)
        bound = ErrorBound(value=1e-3, mode="abs")
        assert 32**3 < _POOL_GRAIN_ELEMENTS <= 64**3
        cube = rng.standard_normal((64, 64, 64)).cumsum(axis=0)
        # An integer size applies per axis, so its fan-out depends on the
        # rank of the data.
        for block_shape in [16, 32, (32, 64, 63)]:  # the last is one row short of the grain
            small = create_compressor("sz3").configure_blocks(
                block_shape=block_shape, block_executor=spy
            )
            blob = small.compress(cube, bound).blob
            small.decompress(blob)
            assert blob.num_blocks > 1
        # 64 per axis reaches the grain on 3-D data only: 64^2 blocks of a
        # 2-D field stay inline under the same configuration.
        large = create_compressor("sz3").configure_blocks(block_shape=64, block_executor=spy)
        flat = large.compress(cube[0].repeat(2, axis=0), bound).blob
        large.decompress(flat)
        assert flat.num_blocks > 1
        assert calls == []
        slab = rng.standard_normal((128, 64, 64)).cumsum(axis=0)
        blob = large.compress(slab, bound).blob
        assert calls and set(calls) == {2}  # both shared-codebook phases
        del calls[:]
        recon = large.decompress(blob)
        assert calls == [2]
        assert np.abs(slab - recon).max() <= 1e-3 * (1 + 1e-9)

    def test_config_rejects_inconsistent_block_knobs(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            OcelotConfig(block_size=0)
        with pytest.raises(ConfigurationError):
            OcelotConfig(block_workers=0)
        with pytest.raises(ConfigurationError):
            OcelotConfig(adaptive_predictor=True)  # requires block_size

    def test_cli_rejects_adaptive_without_block_size(self, capsys):
        """``OcelotConfig`` is the one check: a typed error, one line, exit 1."""
        from repro.cli import main

        assert main(["compress", "--adaptive-predictor"]) == 1
        assert capsys.readouterr().err == (
            "ocelot compress: adaptive_predictor requires block_size (per-block "
            "selection only applies in blocked mode) (invalid_config)\n"
        )

    def test_cli_rejects_nonpositive_block_size(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(["compress", "--block-size", "-4"])
        assert excinfo.value.code == 2
        assert "must be >= 1" in capsys.readouterr().err

    def test_orchestrator_end_to_end_blocked(self):
        dataset = generate_application("cesm", snapshots=1, scale=0.03)
        config = OcelotConfig(
            error_bound=1e-3,
            compressor="sz-lorenzo-fast",
            mode="compressed",
            block_size=24,
            block_workers=2,
            adaptive_predictor=True,
            verify_error_bound=True,
            sentinel_enabled=False,
        )
        report = Ocelot(config).transfer_dataset(
            dataset, "anvil", "cori", mode="compressed"
        )
        assert report.compression_ratio > 1.0
        assert report.max_abs_error is not None
        # The bound is value-range relative per file; the reported maximum
        # must stay within the largest per-file absolute bound.
        ranges = [
            float(np.nanmax(f.data) - np.nanmin(f.data)) for f in dataset.fields
        ]
        assert report.max_abs_error <= 1e-3 * max(ranges) * (1 + 1e-6)
