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

Real work still happens: blocks are genuinely encoded, and the
destination assembles a valid blob from the received sections and hands
it to the bulk path's destination step
(``OcelotOrchestrator._decompress_files``), which decodes, measures and
lands it.  The pipeline writes the bulk phases' :class:`TransferRun`
record — timings, ``outcome``, ``quality``, ``ratio`` and shipped
counts — and its compression span is the bulk compression makespan
model over the per-block encode times and chunk sizes, so a report
means the same whichever way the bytes travelled.

A streamed run ships the very blocks the bulk encode writes
(``encode_blocks``), and it reads the whole-blob cache tier but never
writes it: the blob it assembles lacks the ``block_codecs`` and
``error_bound_request`` metadata that ``compress`` adds, so its bytes
differ from the bulk blob the same pipeline fingerprint keys.  Storing
them would hand a later bulk run different bytes than it would have
produced.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, Iterator, List, Tuple

import numpy as np

from ..compression import CompressedBlob
from ..transfer.gridftp import lpt_makespan
from ..transfer.service import TransferStream

if TYPE_CHECKING:
    from .orchestrator import OcelotOrchestrator
    from .phases import TransferRun

__all__ = ["StreamingPipeline"]


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

    def __init__(self, orch: "OcelotOrchestrator", record: "TransferRun") -> None:
        self.orch = orch
        self.config = orch.config
        self.cluster = orch.executor.cluster
        self.record = record
        self._scoped = orch._scoped(record.dataset.name)

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
        share = self.cluster.write_bandwidth(writers) / max(1, writers)
        return compute + nominal_bytes / share

    # ------------------------------------------------------------------ #
    def run(self) -> int:
        """Stream the run's files still to compress; returns the chunks sent.

        Fills the run's timings — each phase's standalone span (what the
        bulk path sums) and ``streaming_s``, the overlapped makespan
        counted from the stream's opening — and its ``outcome``,
        ``quality``, ``ratio`` and shipped counts.
        """
        run, config = self.record, self.config
        if not run.to_compress:
            return 0
        stream: TransferStream = self.orch.testbed.service.open_stream(
            run.source, run.destination, label=f"{self._scoped}:streamed"
        )
        # Compute nodes pay the same start-up cost as the bulk makespan
        # models before the first block can encode/decode.
        startup_s = self.cluster.startup_s_per_node
        produce_start = startup_s * run.nodes
        consume_start = startup_s * run.decompression_nodes
        decode_workers = self.cluster.cores(run.decompression_nodes, config.cores_per_node)

        sent, encode_times = self._produce(
            stream, produce_start, self.cluster.cores(run.nodes, config.cores_per_node)
        )
        task = stream.close()
        last_decode_s, decode_times = self._consume(sent, consume_start, decode_workers)

        timings = run.timings
        timings.compression_s = self.orch.executor.compression_makespan(
            encode_times,
            [chunk.size_bytes for chunk in task.chunks],
            nodes=run.nodes,
            cores_per_node=config.cores_per_node,
        ).makespan_s
        timings.transfer_s = task.duration_s
        timings.decompression_s = consume_start + lpt_makespan(decode_times, decode_workers)
        timings.streaming_s = max(stream.last_completion_s, last_decode_s)
        run.shipped_files += len(run.to_compress)
        run.shipped_bytes += task.bytes_transferred
        run.ratio = run.outcome.ratio
        return len(task.chunks)

    def _produce(
        self, stream: TransferStream, produce_start: float, workers: int
    ) -> Tuple[List[_SentFile], List[float]]:
        """Encode every block and hand it to the stream as it becomes ready.

        Returns the sent files and the simulated encode time of each
        block, in send order.
        """
        config, plan = self.config, self.record.plan
        producers = [produce_start] * workers
        heapq.heapify(producers)
        window = max(1, config.stream_window)
        chunks = stream.task.chunks
        sent: List[_SentFile] = []
        encode_times: List[float] = []
        for staged_file in self.record.to_compress:
            compressor = self.orch._build_compressor(plan.compressor)
            arr = np.asarray(staged_file.field.data)
            if not np.issubdtype(arr.dtype, np.floating):
                arr = arr.astype(np.float32)
            # The bulk encode's blocks, one message each (without a block
            # size a file is one block, so the stream overlaps files).
            header, encoded = compressor.encode_blocks(arr, plan.error_bound.absolute_for(arr))
            blocks: List[_PendingBlock] = []
            for entry, payload in encoded:
                nominal = int(math.prod(entry["shape"]) * arr.itemsize * config.size_scale)
                encode_s = config.simulated_compute_s(
                    nominal, config.assumed_compression_throughput_mbps
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
                    name=f"/compressed/{self._scoped}/{staged_file.field.filename}.sz"
                    f"#block{entry['id']}",
                    size_bytes=int(message.serialized_size() * config.size_scale),
                    available_at=ready,
                )
                blocks.append(_PendingBlock(entry, payload, nominal, chunk.completed_at))
            sent.append((header, blocks))
        return sent, encode_times

    def _consume(
        self, sent: List[_SentFile], consume_start: float, workers: int
    ) -> Tuple[float, List[float]]:
        """Schedule every block's decode after its arrival, then decode the files.

        Each block is scheduled on the consumer workers at its own
        simulated cost; each file's blob goes through the destination step
        the bulk ``decompress`` phase uses.  Returns when the last block
        finishes decoding and every simulated decode time.
        """
        consumers = [consume_start] * workers
        heapq.heapify(consumers)
        decode_times: List[float] = []
        for _, blocks in sent:
            for pending in blocks:
                decode_s = self._decode_s(pending.nominal_bytes, workers)
                decode_times.append(decode_s)
                finish = max(heapq.heappop(consumers), pending.arrived_at) + decode_s
                heapq.heappush(consumers, finish)
        self.orch._decompress_files(self.record, self._assemble(sent))
        # A worker's clock only moves forward, so the latest finish is still queued.
        return max(consumers), decode_times

    def _assemble(self, sent: List[_SentFile]) -> Iterator[Tuple[str, CompressedBlob]]:
        """Each streamed file's blob, rebuilt from its blocks and landed at both ends.

        Records each file's compressed and original bytes on the run's
        ``outcome``, as the bulk compress phase does.
        """
        run, scale = self.record, self.config.size_scale
        src_fs = self.orch.testbed.endpoint(run.source).filesystem
        dst_fs = self.orch.testbed.endpoint(run.destination).filesystem
        for staged_file, (header, blocks) in zip(run.to_compress, sent):
            blob = CompressedBlob.assemble(header, [(p.entry, p.payload) for p in blocks])
            payload = blob.to_bytes()
            path = f"/compressed/{self._scoped}/{staged_file.field.filename}.sz"
            scaled_len = int(len(payload) * scale)
            src_fs.write(path, data=payload, size_bytes=scaled_len)
            dst_fs.write(path, data=payload, size_bytes=scaled_len)
            run.outcome.per_file_output_bytes.append(scaled_len)
            run.outcome.original_bytes += staged_file.size_bytes
            yield staged_file.field.filename, blob
