"""Which public entry points the traced run wraps, layer by layer.

Every name here is public today (no ``_``-prefixed attribute is touched)
and nothing under ``src/`` is edited: :func:`install` swaps each one for
a :class:`bench.trace.Tracer` shim.  The ``counts`` callbacks record what
crossed the boundary — raw element bytes for data-path calls, int64
symbol-stream bytes for the entropy codecs (as ``BENCH_codec.json``
does), uncompressed-side bytes for the lossless stage.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional

import numpy as np

from bench.trace import Tracer

#: Layers "below" service/core: their spans are what the ledger counts as
#: attributed when it computes ``core.ledger_coverage_frac``.
LOWER_LAYERS = frozenset(
    {"prediction", "pipeline", "predictors", "quantizer", "encoders",
     "blob", "cache", "transfer"}
)
#: The ``compression.*`` modules (for the gateway bypass prediction).
COMPRESSION_LAYERS = frozenset(
    {"pipeline", "predictors", "quantizer", "encoders", "blob"}
)
#: Bytes per int64 symbol handed to the entropy codecs.
SYMBOL_BYTES = 8


def _nbytes(value: Any) -> int:
    return int(np.asarray(value).nbytes)


def install(tracer: Tracer, step_label: Optional[Callable[[], str]] = None,
            deep: bool = True) -> None:
    """Wrap every layer's public entry points on ``tracer``.

    ``step_label`` names the phase a ``JobScheduler.step`` call just
    produced (the in-process workloads know which job is in flight).
    ``deep=False`` stops at the pipeline and blob boundaries: on the
    gateway's ~1 k-element datasets the predictor, quantiser and codec
    calls last microseconds, and timing each one nearly doubled the job
    wall it was meant to explain.
    """
    from repro.cache.store import BlobCache
    from repro.compression.interface import CompressedBlob, Compressor
    from repro.compression.sz.pipeline import PredictionPipelineCompressor
    from repro.core import orchestrator as orchestrator_module
    from repro.core.grouping import FileGrouper
    from repro.core.planner import CompressionPlanner
    from repro.core.streaming import StreamingPipeline
    from repro.features.extractor import FeatureExtractor
    from repro.gateway.bus import EventBus
    from repro.gateway.driver import GatewayDriver
    from repro.service.api import OcelotService
    from repro.service.scheduler import JobScheduler
    from repro.transfer.service import TransferService, TransferStream

    wrap = tracer.wrap

    # service ---------------------------------------------------------- #
    wrap(JobScheduler, "step", "service",
         counts=(lambda a, k, r: {"phase": step_label()}) if step_label else None)
    wrap(OcelotService, "submit", "service")

    # core ------------------------------------------------------------- #
    wrap(StreamingPipeline, "run", "core")
    wrap(FileGrouper, "build_groups", "core")
    wrap(FileGrouper, "unpack", "core")

    # prediction (+ features) ------------------------------------------ #
    wrap(CompressionPlanner, "plan", "prediction")
    wrap(FeatureExtractor, "extract", "prediction")

    # compression.sz.pipeline ------------------------------------------ #
    def compress_counts(args: tuple, kwargs: dict, result: Any) -> Dict[str, Any]:
        blob = result.blob
        codecs = blob.metadata.get("block_codecs") or {}
        return {
            "bytes": _nbytes(args[1]),
            "blocks": blob.num_blocks,
            "aliased": blob.aliased_block_count,
            "rans": int(codecs.get("rans", 0)),
        }

    def block_counts(args: tuple, kwargs: dict, result: Any) -> Dict[str, Any]:
        arr, spec = args[1], args[3]
        entry = result[0]
        return {
            "bytes": spec.num_elements * np.asarray(arr).dtype.itemsize,
            "blocks": 1,
            "aliased": 0,
            "rans": int(entry.get("entropy") == "rans"),
        }

    wrap(Compressor, "compress", "pipeline", counts=compress_counts)
    wrap(Compressor, "decompress", "pipeline",
         counts=lambda a, k, r: {"bytes": _nbytes(r)})
    wrap(PredictionPipelineCompressor, "encode_one_block", "pipeline",
         counts=block_counts)
    wrap(PredictionPipelineCompressor, "decompress_block", "pipeline",
         counts=lambda a, k, r: {"bytes": _nbytes(r)})
    wrap(PredictionPipelineCompressor, "prepare_shared_codebook", "pipeline")
    if deep:
        _install_kernels(tracer)

    # compression.interface (blob) --------------------------------------- #
    wrap(CompressedBlob, "to_bytes", "blob",
         counts=lambda a, k, r: {"bytes": len(r)})
    wrap(CompressedBlob, "from_bytes", "blob",
         counts=lambda a, k, r: {"bytes": len(a[1])})
    wrap(CompressedBlob, "export_block", "blob")
    wrap(CompressedBlob, "parse_block", "blob")
    wrap(CompressedBlob, "assemble", "blob")

    # cache -------------------------------------------------------------- #
    wrap(BlobCache, "get", "cache",
         counts=lambda a, k, r: {"tier": a[1], "hit": r is not None})
    wrap(BlobCache, "put", "cache",
         counts=lambda a, k, r: {"tier": a[1], "stored": bool(r)})
    # Imported by name into the orchestrator, so that binding is the one
    # the whole-file digest goes through (the pipeline's own per-block
    # dedup digests stay part of the pipeline's self time).
    wrap(orchestrator_module, "array_content_digest", "cache",
         name="cache.array_content_digest",
         counts=lambda a, k, r: {"bytes": _nbytes(a[0])})

    # transfer ----------------------------------------------------------- #
    wrap(TransferService, "submit", "transfer")
    wrap(TransferStream, "send_chunk", "transfer")

    # gateway ------------------------------------------------------------ #
    wrap(GatewayDriver, "submit", "gateway",
         counts=lambda a, k, r: {"job_id": r.get("job_id")})
    wrap(GatewayDriver, "wait", "gateway",
         counts=lambda a, k, r: {"job_id": a[1]})
    wrap(GatewayDriver, "record", "gateway",
         counts=lambda a, k, r: {"job_id": a[1]})
    wrap(EventBus, "publish_all", "gateway",
         counts=lambda a, k, r: {"events": len(a[1])})


def _install_kernels(tracer: Tracer) -> None:
    """Predictors, quantiser and the entropy/lossless codecs."""
    from repro.compression.encoders.huffman import HuffmanCodec
    from repro.compression.encoders.lossless import DeflateBackend
    from repro.compression.encoders.rans import RansCodec
    from repro.compression.predictors.base import Predictor
    from repro.compression.quantizer import LinearQuantizer

    wrap = tracer.wrap

    # Reconstructions are float64 inside the pipeline; rates are quoted
    # over the element count at the dataset's own width (float32).
    for cls in [Predictor] + _subclasses(Predictor):
        if "encode_block" in vars(cls):
            wrap(cls, "encode_block", "predictors", name="Predictor.encode_block",
                 counts=lambda a, k, r: {"items": int(np.asarray(a[1]).size)})
        if "decode_block" in vars(cls):
            wrap(cls, "decode_block", "predictors", name="Predictor.decode_block",
                 counts=lambda a, k, r: {"items": int(np.asarray(r).size)})
    wrap(LinearQuantizer, "quantize", "quantizer",
         counts=lambda a, k, r: {"items": int(r.codes.size),
                                 "escapes": int(r.literals.size)})
    wrap(LinearQuantizer, "dequantize", "quantizer",
         counts=lambda a, k, r: {"items": int(r.size)})

    def symbols_in(args: tuple, kwargs: dict, result: Any) -> Dict[str, Any]:
        return {"bytes": int(np.asarray(args[1]).size) * SYMBOL_BYTES}

    def symbols_out(args: tuple, kwargs: dict, result: Any) -> Dict[str, Any]:
        return {"bytes": int(result.size) * SYMBOL_BYTES}

    wrap(HuffmanCodec, "encode", "encoders", counts=symbols_in)
    wrap(HuffmanCodec, "encode_with_book", "encoders", counts=symbols_in)
    wrap(HuffmanCodec, "decode", "encoders", counts=symbols_out)
    wrap(RansCodec, "encode_with_table", "encoders", counts=symbols_in)
    wrap(RansCodec, "decode", "encoders", counts=symbols_out)
    wrap(DeflateBackend, "compress", "encoders",
         counts=lambda a, k, r: {"bytes": len(a[1])})
    wrap(DeflateBackend, "decompress", "encoders",
         counts=lambda a, k, r: {"bytes": len(r)})


def _subclasses(cls: type) -> list:
    found = []
    for sub in cls.__subclasses__():
        found.append(sub)
        found.extend(_subclasses(sub))
    return found
