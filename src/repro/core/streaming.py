"""Streaming block pipeline: overlap compress → WAN → decode.

The bulk path runs strictly phase-serialised — compress every file, then
submit one transfer, then decompress — so its makespan is the *sum* of
the phases.  This module drives the same real work through a
produce/ship/consume pipeline instead: each ``block:<id>`` section ships
over a :class:`~repro.transfer.service.TransferStream` the moment it
finishes encoding, the destination decodes each block as it arrives
(billed its own bytes at the assumed decompression throughput), and a bounded
in-flight window applies back-pressure so a slow WAN throttles the
producers instead of buffering the whole dataset.  The simulated
makespan is then the *max* of the overlapped phases plus pipeline
fill/drain, which is the paper's end-to-end win.

Real work still happens: blocks are genuinely encoded and decoded, the
destination assembles a valid blob from the received sections, and
reconstruction quality is measured against the originals.

A streamed run reads the whole-blob cache tier but never writes it: the
blob header ships before the first block, so its shared codebook is
seeded from a block sample rather than pooled over every block, and the
assembled bytes differ from the bulk encode that the same pipeline
fingerprint keys.  Storing them would hand a later bulk run different
bytes than it would have produced.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..compression import CompressedBlob
from ..compression.interface import require_error_bound
from ..compression.sz.pipeline import PredictionPipelineCompressor
from ..transfer.service import TransferStream
from .config import OcelotConfig
from .parallel import ParallelCostModel, _lpt_makespan
from .reporting import QualityTally

__all__ = ["StreamingOutcome", "StreamingPipeline"]


@dataclass
class StreamingOutcome:
    """Timeline and quality results of one streamed dataset transfer.

    ``compression_s`` / ``transfer_s`` / ``decompression_s`` are the
    *standalone* spans each phase would need in isolation (what the bulk
    path sums); ``streaming_s`` is the overlapped end-to-end makespan.
    """

    chunk_count: int = 0
    compression_s: float = 0.0
    transfer_s: float = 0.0
    decompression_s: float = 0.0
    streaming_s: float = 0.0
    original_bytes: int = 0
    compressed_bytes: int = 0
    transferred_bytes: int = 0
    #: :meth:`QualityTally.summary` over the streamed files.
    quality: Dict[str, float] = field(default_factory=dict)

    @property
    def ratio(self) -> float:
        """Compression ratio achieved over the streamed files."""
        if self.compressed_bytes == 0:
            return float("inf")
        return self.original_bytes / self.compressed_bytes


@dataclass
class _PendingBlock:
    """One block travelling through the pipeline."""

    entry: Dict[str, Any]
    payload: bytes
    #: Uncompressed size of the block at the run's ``size_scale``.
    nominal_bytes: int
    arrived_at: float


#: One streamed file on the wire: its blob header and blocks in send order.
_SentFile = Tuple[Dict[str, Any], List[_PendingBlock]]


class StreamingPipeline:
    """Drive produce(compress block) → ship(chunk) → consume(decode block).

    The pipeline keeps its own timeline, starting at the stream's opening
    (t = 0): producer "workers" model the compression job's cores, the
    stream models the WAN channels, and consumer workers model the
    decompression job.  The in-flight window
    (``OcelotConfig.stream_window``) bounds how many blocks may be
    encoded but not yet fully received.
    """

    def __init__(
        self,
        config: OcelotConfig,
        testbed,
        build_compressor,
        compression_nodes: Optional[int] = None,
        cost_model: Optional[ParallelCostModel] = None,
    ) -> None:
        self.config = config
        self.testbed = testbed
        self._build_compressor = build_compressor
        self._compression_nodes = compression_nodes or config.compression_nodes
        self.cost_model = cost_model or ParallelCostModel()

    # ------------------------------------------------------------------ #
    def _worker_count(self, nodes: int) -> int:
        return max(
            1,
            int(nodes * self.config.cores_per_node * self.cost_model.parallel_efficiency),
        )

    def _decode_s(self, nominal_bytes: int, writers: int) -> float:
        """Simulated cost of decoding one block, including the PFS write-back.

        The block's bytes at the assumed decompression throughput, plus
        its write to the destination's shared parallel filesystem, under
        the same write-contention model the bulk decompression makespan
        applies: ``write_bandwidth(writers)`` is the *aggregate* the
        contending writers share, so one block moving concurrently with
        ``writers - 1`` others gets a 1/``writers`` fair share of it.
        """
        compute = self.config.simulated_compute_s(
            nominal_bytes, self.config.assumed_decompression_throughput_mbps
        )
        share = self.cost_model.write_bandwidth(writers) / max(1, writers)
        return compute + nominal_bytes / share

    # ------------------------------------------------------------------ #
    def run(
        self,
        dataset_name: str,
        staged,
        plan,
        source: str,
        destination: str,
    ) -> StreamingOutcome:
        """Stream ``staged`` files from ``source`` to ``destination``.

        ``plan`` is the planner's :class:`CompressionPlan` (compressor
        name + error bound).  Returns the streaming outcome, whose
        ``streaming_s`` is the overlapped makespan counted from the
        stream's opening.
        """
        if not staged:
            return StreamingOutcome()
        stream: TransferStream = self.testbed.service.open_stream(
            source,
            destination,
            label=f"{dataset_name}:streamed",
        )
        # Compute nodes pay the same start-up cost as the bulk makespan
        # models before the first block can encode/decode.
        startup_s = self.cost_model.startup_s_per_node
        produce_start = startup_s * self._compression_nodes
        consume_start = startup_s * self.config.decompression_nodes
        producer_workers = self._worker_count(self._compression_nodes)
        decode_workers = self._worker_count(self.config.decompression_nodes)

        sent, chunks, encode_times = self._produce(
            stream, dataset_name, staged, plan, produce_start, producer_workers
        )
        stream.close()
        outcome = StreamingOutcome(
            chunk_count=len(chunks),
            original_bytes=sum(f.size_bytes for f in staged),
            transferred_bytes=stream.task.bytes_transferred,
        )
        last_decode_s, decode_times = self._consume(
            dataset_name, staged, sent, source, destination, consume_start, decode_workers, outcome
        )
        makespan_end = max(stream.last_completion_s, last_decode_s)

        # Phase-equivalent spans.  Mirror the bulk compression makespan's
        # accounting (compute + the PFS write of the compressed output +
        # node start-up) so the streamed and bulk compression_s columns
        # are comparable.
        compress_writers = max(1, min(producer_workers, len(chunks)))
        compress_io = outcome.transferred_bytes / self.cost_model.write_bandwidth(
            compress_writers
        )
        outcome.compression_s = (
            produce_start + _lpt_makespan(encode_times, producer_workers) + compress_io
        )
        outcome.transfer_s = stream.task.duration_s
        outcome.decompression_s = consume_start + _lpt_makespan(decode_times, decode_workers)
        outcome.streaming_s = makespan_end
        return outcome

    def _produce(
        self,
        stream: TransferStream,
        dataset_name: str,
        staged,
        plan,
        produce_start: float,
        workers: int,
    ) -> Tuple[List[_SentFile], List[Any], List[float]]:
        """Encode every block and hand it to the stream as it becomes ready.

        Returns the sent files, every chunk in send order and the
        simulated encode time of each.
        """
        producers = [produce_start] * workers
        heapq.heapify(producers)
        window = max(1, self.config.stream_window)
        sent: List[_SentFile] = []
        chunks: List[Any] = []
        encode_times: List[float] = []
        for staged_file in staged:
            compressor = self._build_compressor(plan.compressor)
            arr = np.asarray(staged_file.field.data)
            if not np.issubdtype(arr.dtype, np.floating):
                arr = arr.astype(np.float32)
            eb_abs = plan.error_bound.absolute_for(arr)
            blocks: List[_PendingBlock] = []
            for entry, payload, header in self._encode_file(compressor, arr, eb_abs):
                nominal = int(spec_nbytes(entry, arr.dtype) * self.config.size_scale)
                encode_s = self.config.simulated_compute_s(
                    nominal, self.config.assumed_compression_throughput_mbps
                )
                encode_times.append(encode_s)
                # Back-pressure: block k may not start encoding until the
                # (k - window)-th chunk has fully left the wire.
                gate = chunks[len(chunks) - window].completed_at if len(chunks) >= window else 0.0
                ready = max(heapq.heappop(producers), gate, produce_start) + encode_s
                heapq.heappush(producers, ready)

                # Only the chunk's wire size matters to the simulation; the
                # block bytes for destination-side assembly travel via
                # ``_PendingBlock``, so buffering the message here too would
                # double peak memory for nothing.
                message = CompressedBlob.block_message(header, entry, payload)
                chunk = stream.send_chunk(
                    name=f"/compressed/{dataset_name}/{staged_file.field.filename}.sz"
                    f"#block{entry['id']}",
                    size_bytes=int(message.serialized_size() * self.config.size_scale),
                    available_at=ready,
                )
                chunks.append(chunk)
                blocks.append(_PendingBlock(entry, payload, nominal, chunk.completed_at))
            sent.append((header, blocks))
        return sent, chunks, encode_times

    def _consume(
        self,
        dataset_name: str,
        staged,
        sent: List[_SentFile],
        source: str,
        destination: str,
        consume_start: float,
        workers: int,
        outcome: StreamingOutcome,
    ) -> Tuple[float, List[float]]:
        """Assemble, decode and measure each file as its blocks arrive.

        A file decodes in one call of the bulk reader (one batch of
        entropy streams, then predictor decode per block); each block is
        scheduled on the consumer workers at its own simulated cost.
        Fills ``outcome``'s compressed size and quality; returns when the
        last block finishes decoding and every simulated decode time.
        """
        src_fs = self.testbed.endpoint(source).filesystem
        dst_fs = self.testbed.endpoint(destination).filesystem
        consumers = [consume_start] * workers
        heapq.heapify(consumers)
        decode_times: List[float] = []
        tally = QualityTally()
        for staged_file, (header, blocks) in zip(staged, sent):
            blob = CompressedBlob.assemble(header, [(p.entry, p.payload) for p in blocks])
            recon = self._build_compressor(blob.compressor).decompress(blob)
            for pending in blocks:
                decode_s = self._decode_s(pending.nominal_bytes, workers)
                decode_times.append(decode_s)
                finish = max(heapq.heappop(consumers), pending.arrived_at) + decode_s
                heapq.heappush(consumers, finish)

            payload = blob.to_bytes()
            path = f"/compressed/{dataset_name}/{staged_file.field.filename}.sz"
            scaled_len = int(len(payload) * self.config.size_scale)
            src_fs.write(path, data=payload, size_bytes=scaled_len)
            dst_fs.write(path, data=payload, size_bytes=scaled_len)
            outcome.compressed_bytes += scaled_len
            max_abs_error = tally.add(staged_file.field.data, recon)
            if self.config.verify_error_bound:
                require_error_bound(
                    np.asarray(staged_file.field.data), recon, blob.error_bound_abs, max_abs_error
                )
            dst_fs.write(
                f"/decompressed/{dataset_name}/{staged_file.field.filename}",
                size_bytes=int(recon.nbytes * self.config.size_scale),
            )
        outcome.quality = tally.summary()
        # A worker's clock only moves forward, so the latest finish is still queued.
        return max(consumers), decode_times

    # ------------------------------------------------------------------ #
    def _encode_file(
        self, compressor: PredictionPipelineCompressor, arr: np.ndarray, eb_abs: float
    ):
        """Yield ``(entry, payload, blob_header)`` per block.

        One tuple per block of the compressor's plan as each finishes
        encoding; without a block size the plan is one block per file, so
        streaming still overlaps across files.
        """
        block_plan = compressor.block_plan(arr)
        # The blob header ships before the first block, so the shared
        # codebook is seeded from a sample of blocks rather than the
        # exact all-block frequencies the bulk path pools; blocks
        # whose alphabet escapes it fall back to per-block codebooks.
        shared_book = compressor.prepare_shared_codebook(arr, block_plan, eb_abs)
        header = compressor.blocked_header(arr, block_plan, eb_abs, shared_book=shared_book)
        for spec in block_plan:
            entry, payload = compressor.encode_one_block(
                arr, block_plan, spec, eb_abs, shared_book=shared_book
            )
            yield entry, payload, header


def spec_nbytes(entry: Dict[str, Any], dtype: np.dtype) -> int:
    """Uncompressed byte size of the block an index entry describes."""
    count = 1
    for dim in entry["shape"]:
        count *= int(dim)
    return count * np.dtype(dtype).itemsize
