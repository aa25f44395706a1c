"""Streaming block transfer tests: stream API, pipeline, orchestrator knob.

The invariants that make streamed mode worth having:

* the transfer service's stream API models per-chunk compute/network
  overlap (chunks wait for channels, channels idle for the producer) and
  multi-chunk tasks report real byte counts and speeds;
* the streaming pipeline's simulated makespan beats the serialised
  compress + transfer + decompress sum while reconstructing bit-for-bit
  the same data as the bulk path;
* the ``transfer_mode`` knob selects streamed vs bulk per run and the
  bulk baseline stays untouched.
"""

from __future__ import annotations

import copy
import re
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression import CompressedBlob
from repro.core import Ocelot, OcelotConfig, OcelotOrchestrator
from repro.datasets import generate_application
from repro.errors import ConfigurationError, TransferError
from repro.transfer import TransferService, build_testbed


def _streamed_config(**overrides):
    base = dict(
        mode="compressed",
        compressor="sz3-fast",
        block_size=16,
        size_scale=3000.0,
        compression_nodes=2,
        decompression_nodes=2,
        cores_per_node=4,
        assumed_compression_throughput_mbps=300.0,
        assumed_decompression_throughput_mbps=600.0,
    )
    base.update(overrides)
    return OcelotConfig(**base)


@pytest.fixture
def opened_streams(monkeypatch):
    """Every stream the transfer service opens while the test runs (the
    service itself keeps no record of them)."""
    streams = []
    real = TransferService.open_stream

    def spy(self, *args, **kwargs):
        streams.append(real(self, *args, **kwargs))
        return streams[-1]

    monkeypatch.setattr(TransferService, "open_stream", spy)
    return streams


class TestTransferStream:
    def test_chunk_times_count_from_the_opening_and_land_nothing(self, testbed):
        """A stream's times count from its opening; the shared clock is not
        its.  A chunk is a size: the caller lands what it assembles."""
        testbed.clock.advance(50.0)
        stream = testbed.service.open_stream("anvil", "cori", label="s")
        first = stream.send_chunk("/s/a.part", size_bytes=500_000)
        chunk = stream.send_chunk("/s/b.part", size_bytes=500_000, available_at=2.0)
        task = stream.close()
        assert task.request.paths == ["/s/a.part", "/s/b.part"]
        assert not testbed.endpoint("cori").filesystem.exists("/s/b.part")
        assert testbed.clock.now == 50.0
        assert first.available_at == 0.0 and task.completed_at < 50.0
        # The second chunk could not start before it existed.
        assert chunk.started_at >= 2.0

    def test_channels_idle_when_producer_is_slow(self, testbed):
        stream = testbed.service.open_stream("anvil", "cori")
        first = stream.send_chunk("/a", size_bytes=10_000_000, available_at=0.0)
        late = stream.send_chunk("/b", size_bytes=10_000_000, available_at=100.0)
        stream.close()
        assert late.started_at == pytest.approx(100.0)
        assert late.wait_s == pytest.approx(0.0)
        assert first.completed_at < 100.0

    def test_chunks_queue_when_channels_are_busy(self, testbed):
        # More simultaneous chunks than channels: the excess must wait.
        stream = testbed.service.open_stream("anvil", "cori")
        concurrency = testbed.service.engine.settings.concurrency
        chunks = [
            stream.send_chunk(f"/c{i}", size_bytes=200_000_000, available_at=0.0)
            for i in range(concurrency + 4)
        ]
        stream.close()
        starts = sorted(c.started_at for c in chunks)
        # The first `concurrency` chunks start together once the session is
        # up; the 4 excess chunks wait for a channel to drain.
        assert starts[concurrency - 1] == pytest.approx(starts[0])
        assert all(s > starts[0] for s in starts[concurrency:])

    def test_multi_chunk_task_accounting(self, testbed):
        """Satellite fix: bytes/speed must sum chunks, not read a bulk estimate."""
        stream = testbed.service.open_stream("anvil", "cori")
        stream.send_chunk("/a", size_bytes=30_000_000)
        stream.send_chunk("/b", size_bytes=70_000_000)
        task = stream.close()
        assert task.estimate is None
        assert task.bytes_transferred == 100_000_000
        assert task.effective_speed_mbps > 0
        assert task.effective_speed_mbps == pytest.approx(
            100.0 / task.duration_s, rel=1e-6
        )

    def test_closed_stream_rejects_chunks(self, testbed):
        stream = testbed.service.open_stream("anvil", "cori")
        stream.send_chunk("/a", size_bytes=10)
        stream.close()
        with pytest.raises(TransferError):
            stream.send_chunk("/b", size_bytes=10)
        with pytest.raises(TransferError):
            stream.close()

    def test_a_negative_chunk_size_raises(self, testbed):
        stream = testbed.service.open_stream("anvil", "cori")
        with pytest.raises(TransferError):
            stream.send_chunk("/a", size_bytes=-1)


def _scan_in_flight(stream, when):
    """Chunks on a channel at ``when``, by a scan of every chunk sent."""
    return sum(1 for c in stream.task.chunks if c.started_at <= when < c.completed_at)


@settings(max_examples=60, deadline=None)
@given(
    chunks=st.lists(
        st.tuples(
            st.one_of(st.just(0), st.integers(0, 300_000_000)),
            st.one_of(st.sampled_from([0.0, 1.0, 2.5]), st.floats(0.0, 30.0)),
        ),
        min_size=1,
        max_size=40,
    )
)
def test_in_flight_counts_match_a_scan_of_every_chunk(chunks):
    """Out-of-order ``available_at`` and zero-size chunks included, a
    stream's timeline is the one the linear scan gives."""
    stream = build_testbed().service.open_stream("anvil", "cori")
    scanning = copy.deepcopy(stream)
    scanning._in_flight_at = partial(_scan_in_flight, scanning)
    for i, (size, available_at) in enumerate(chunks):
        sent = stream.send_chunk(f"/c{i}", size, available_at)
        assert sent == scanning.send_chunk(f"/c{i}", size, available_at)
    for chunk in stream.task.chunks:
        for when in (chunk.available_at, chunk.started_at, chunk.completed_at):
            assert stream._in_flight_at(when) == _scan_in_flight(stream, when)
    assert stream.last_completion_s == max(c.completed_at for c in stream.task.chunks)
    assert stream.close() == scanning.close()


class TestStreamedOrchestration:
    @pytest.fixture(scope="class")
    def dataset(self):
        return generate_application("miranda", snapshots=1, scale=0.04, seed=5)

    @pytest.fixture(scope="class")
    def bulk_report(self, dataset):
        return Ocelot(_streamed_config()).transfer_dataset(
            dataset, "anvil", "cori", mode="compressed"
        )

    @pytest.fixture(scope="class")
    def streamed_report(self, dataset):
        config = _streamed_config(transfer_mode="streamed", stream_window=8)
        return Ocelot(config).transfer_dataset(dataset, "anvil", "cori", mode="compressed")

    def test_dataset_is_multi_file(self, dataset):
        assert dataset.file_count >= 4

    def test_streamed_beats_serialized_phases(self, bulk_report, streamed_report):
        assert streamed_report.transfer_mode == "streamed"
        assert streamed_report.timings.streaming_s > 0
        # The headline claim: overlapped makespan < the bulk path's
        # compress + transfer sum (let alone the full serialised total).
        bulk_sum = bulk_report.timings.compression_s + bulk_report.timings.transfer_s
        assert streamed_report.total_s < bulk_sum
        assert streamed_report.total_s < bulk_report.total_s

    def test_streamed_quality_matches_bulk(self, bulk_report, streamed_report):
        assert streamed_report.measured_psnr_db == pytest.approx(
            bulk_report.measured_psnr_db, rel=1e-6
        )
        assert streamed_report.compression_ratio == pytest.approx(
            bulk_report.compression_ratio, rel=0.05
        )

    def test_streamed_lands_blobs_and_reconstructions(self, dataset, streamed_report):
        config = _streamed_config(transfer_mode="streamed")
        ocelot = Ocelot(config)
        report = ocelot.transfer_dataset(dataset, "anvil", "cori", mode="compressed")
        destination = ocelot.testbed.endpoint("cori")
        compressed = destination.filesystem.paths(f"/compressed/{dataset.name}")
        decompressed = destination.filesystem.paths(f"/decompressed/{dataset.name}")
        assert len(compressed) == dataset.file_count
        assert len(decompressed) == dataset.file_count
        assert report.transferred_bytes > 0

    def test_phase_spans_reported_alongside_makespan(self, streamed_report):
        timings = streamed_report.timings
        assert timings.compression_s > 0
        assert timings.transfer_s > 0
        assert timings.decompression_s > 0
        # The makespan can never beat the longest single phase.
        assert timings.streaming_s >= max(
            timings.compression_s, timings.transfer_s, timings.decompression_s
        ) - 1e-9
        assert "streamed" in " ".join(streamed_report.notes)

    def test_stream_step_publishes_the_chunk_count(self, dataset):
        """``chunks`` in the job event feed is the count the report's note
        states (it was once ``streaming_s > 0``, a bool)."""
        config = _streamed_config(transfer_mode="streamed", block_size=8)
        phases = OcelotOrchestrator(config).iter_phases(dataset, "anvil", "cori")
        steps = {}
        while True:
            try:
                step = next(phases)
            except StopIteration as stop:
                report = stop.value
                break
            steps[step.name] = step
        noted = re.search(r"streamed (\d+) block chunks", " ".join(report.notes))
        chunks = steps["stream"].detail["chunks"]
        assert type(chunks) is int and chunks == int(noted.group(1)) > dataset.file_count

    @pytest.mark.parametrize("shared", [True, False], ids=["shared", "per-block"])
    def test_every_chunk_is_billed_the_bytes_export_block_writes(
        self, dataset, opened_streams, shared
    ):
        """The stream sizes each block's message without buffering it;
        the size must be the length of the message the blob would export
        (one constructor builds both), for every block of every file."""
        from repro.compression import CompressedBlob

        config = _streamed_config(
            transfer_mode="streamed", compressor="sz3", block_size=8,
            shared_codebook=shared, size_scale=1.0,
        )
        ocelot = Ocelot(config)
        ocelot.transfer_dataset(dataset, "anvil", "cori", mode="compressed")
        landed = ocelot.testbed.endpoint("cori").filesystem
        blobs, billed = {}, 0
        for stream in opened_streams:
            for chunk in stream.task.chunks:
                path, _, block_id = chunk.name.partition("#block")
                if path not in blobs:
                    blobs[path] = CompressedBlob.from_bytes(landed.read(path))
                assert chunk.size_bytes == len(blobs[path].export_block(int(block_id)))
                billed += 1
        assert billed == sum(blob.num_blocks for blob in blobs.values()) > dataset.file_count
        assert {blob.codebook_mode for blob in blobs.values()} == {
            "shared" if shared else "per-block"
        }

    def test_each_file_decodes_in_one_batch_and_blocks_bill_their_bytes(
        self, dataset, monkeypatch
    ):
        """The destination decodes a file through the bulk reader: no
        random-access ``decompress_block`` and one rANS ``decode_streams``
        batch per file.  Each block is billed its own bytes at the
        decompression throughput plus its share of the PFS write, so the
        bills cover the dataset's bytes exactly once."""
        from repro.compression.encoders.rans import RansCodec
        from repro.compression.sz.pipeline import PredictionPipelineCompressor
        from repro.core import ParallelCostModel, streaming

        calls = []
        for cls, name in (
            (PredictionPipelineCompressor, "decompress_block"),
            (RansCodec, "decode_streams"),
        ):
            def spy(*args, _real=getattr(cls, name), _name=name, **kwargs):
                calls.append(_name)
                return _real(*args, **kwargs)

            monkeypatch.setattr(cls, name, spy)
        pipeline = streaming.StreamingPipeline
        bills = []
        real_bill = pipeline._decode_s

        def bill(self, nominal_bytes, writers):
            bills.append((nominal_bytes, writers, real_bill(self, nominal_bytes, writers)))
            return bills[-1][-1]

        monkeypatch.setattr(pipeline, "_decode_s", bill)
        config = _streamed_config(
            transfer_mode="streamed", compressor="sz3", entropy_stage="rans", block_size=8,
            adaptive_predictor=True, shared_codebook=False,
        )
        report = Ocelot(config).transfer_dataset(dataset, "anvil", "cori", mode="compressed")
        assert report.transfer_mode == "streamed"
        assert calls.count("decompress_block") == 0
        assert calls.count("decode_streams") == dataset.file_count
        assert len(bills) > dataset.file_count
        assert sum(nominal for nominal, _, _ in bills) == report.total_bytes
        model = ParallelCostModel()
        for nominal, writers, seconds in bills:
            share = model.write_bandwidth(writers) / writers
            assert seconds == nominal / 600e6 + nominal / share

    @pytest.mark.parametrize("stage", ["huffman", "rans"])
    def test_streamed_and_bulk_land_the_same_block_sections(self, stage):
        """One block encode: a streamed run ships the blocks a bulk run
        writes, so the shared model is pooled over every block and none
        escapes it.  Only the blob metadata that ``compress`` adds (block
        codecs, the requested bound) tells the two blobs apart."""
        dataset = generate_application("cesm", snapshots=1, scale=0.03, seed=12)
        landed = []
        for transfer_mode in ("bulk", "streamed"):
            config = _streamed_config(
                compressor="sz3", entropy_stage=stage, shared_codebook=True,
                transfer_mode=transfer_mode,
            )
            ocelot = Ocelot(config)
            report = ocelot.transfer_dataset(dataset, "anvil", "cori", mode="compressed")
            assert report.transfer_mode == transfer_mode
            filesystem = ocelot.testbed.endpoint("cori").filesystem
            paths = filesystem.paths(f"/compressed/{dataset.name}")
            landed.append({path: filesystem.read(path) for path in paths})
        bulk, streamed = landed
        assert len(bulk) == dataset.file_count and list(bulk) == list(streamed)
        for path, payload in bulk.items():
            ours, theirs = CompressedBlob.from_bytes(payload), CompressedBlob.from_bytes(
                streamed[path]
            )
            assert payload != streamed[path]
            assert "error_bound_request" not in theirs.metadata
            assert "block_codecs" not in theirs.metadata
            assert ours.shared_codebook_bytes == theirs.shared_codebook_bytes is not None
            assert ours.block_index == theirs.block_index
            assert {entry["codebook"] for entry in ours.block_index} == {"shared"}
            for entry in ours.block_index:
                section = entry["section"]
                assert ours.container.get_section(section) == theirs.container.get_section(
                    section
                )

    def test_bulk_and_streamed_fill_one_record(self, dataset):
        """Both paths decode, measure and read the codec stack through one
        destination step: with per-block models the two encodes agree, so
        the reports do too."""
        same = dict(compressor="sz3", entropy_stage="rans", shared_codebook=False, block_size=8)
        bulk = Ocelot(_streamed_config(**same)).transfer_dataset(
            dataset, "anvil", "cori", mode="compressed"
        )
        streamed = Ocelot(_streamed_config(transfer_mode="streamed", **same)).transfer_dataset(
            dataset, "anvil", "cori", mode="compressed"
        )
        assert (bulk.transfer_mode, streamed.transfer_mode) == ("bulk", "streamed")
        assert bulk.entropy_stage == "rans" and sum(bulk.block_codecs.values()) > 1
        for key in ("measured_psnr_db", "max_abs_error", "entropy_stage", "block_codecs"):
            assert getattr(streamed, key) == getattr(bulk, key), key

    def test_destination_nodes_are_capped_at_the_site(self, dataset):
        """cori's partition has 8 nodes: asking for 16 decodes on 8, on the
        streamed path as on the bulk one."""
        capped, asked = (
            Ocelot(
                _streamed_config(transfer_mode="streamed", decompression_nodes=nodes)
            ).transfer_dataset(dataset, "anvil", "cori", mode="compressed").timings
            for nodes in (8, 16)
        )
        assert asked.decompression_s == capped.decompression_s
        assert asked.streaming_s == capped.streaming_s

    def test_tight_window_throttles_but_still_completes(self, dataset):
        config = _streamed_config(transfer_mode="streamed", stream_window=1)
        report = Ocelot(config).transfer_dataset(dataset, "anvil", "cori", mode="compressed")
        wide = _streamed_config(transfer_mode="streamed", stream_window=64)
        wide_report = Ocelot(wide).transfer_dataset(dataset, "anvil", "cori", mode="compressed")
        assert report.measured_psnr_db == pytest.approx(
            wide_report.measured_psnr_db, rel=1e-6
        )
        # A 1-deep window serialises encode→ship per block, so it can only
        # be slower (or equal, when the WAN was never the bottleneck).
        assert report.timings.streaming_s >= wide_report.timings.streaming_s - 1e-9

    def test_grouped_mode_keeps_bulk_path(self, dataset):
        config = _streamed_config(transfer_mode="streamed", mode="grouped")
        report = Ocelot(config).transfer_dataset(dataset, "anvil", "cori", mode="grouped")
        assert report.transfer_mode == "bulk"
        assert report.timings.streaming_s == 0.0
        assert any("bulk path" in note for note in report.notes)

    def test_streamed_without_blocks_streams_whole_files(
        self, dataset, monkeypatch, opened_streams
    ):
        """A file without a block size is a one-block plan: one chunk
        through the same message constructor as any other block, and at
        the destination the bytes ``compress_array`` writes for it."""
        from repro.compression import CompressedBlob, create_blocked_compressor

        messages = []
        real = CompressedBlob.block_message

        def recording(blob_header, entry, payload):
            messages.append(real(blob_header, entry, payload))
            return messages[-1]

        monkeypatch.setattr(CompressedBlob, "block_message", staticmethod(recording))
        config = _streamed_config(transfer_mode="streamed", block_size=None, size_scale=1.0)
        ocelot = Ocelot(config)
        report = ocelot.transfer_dataset(dataset, "anvil", "cori", mode="compressed")
        assert report.transfer_mode == "streamed"
        assert report.measured_psnr_db is not None
        assert report.timings.streaming_s > 0

        chunks = [c for stream in opened_streams for c in stream.task.chunks]
        assert len(chunks) == len(messages) == dataset.file_count
        assert [c.size_bytes for c in chunks] == [m.serialized_size() for m in messages]
        assert all(c.name.endswith("#block0") for c in chunks)
        assert all("stream_block" in m.header and "whole_blob" not in m.header["blob_header"]
                   for m in messages)
        landed = ocelot.testbed.endpoint("cori").filesystem
        compressor = create_blocked_compressor(config.compressor)
        bound = config.resolved_error_bound()
        for data_field in dataset.fields:
            data = data_field.data
            expected = compressor.compress_array(data, bound.absolute_for(data)).to_bytes()
            path = f"/compressed/{dataset.name}/{data_field.filename}.sz"
            assert landed.read(path) == expected


class TestConfigValidation:
    def test_transfer_mode_validated(self):
        with pytest.raises(ConfigurationError):
            OcelotConfig(transfer_mode="warp")

    def test_stream_window_validated(self):
        with pytest.raises(ConfigurationError):
            OcelotConfig(stream_window=0)
