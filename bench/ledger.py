"""Per-layer ledger: turn one traced run's spans into named numbers.

Every value is computed per job (or per iteration) and reported as the
median over the traced jobs; sums are per job, rates are bytes over busy
seconds, and fractions are of the job's wall time.  A workload that
cannot attribute spans to single jobs (the gateway serves two clients
at once) passes one pseudo-job covering its whole loop with ``n`` set to
the number of jobs in it, and sums are divided by ``n``.
"""

from __future__ import annotations

import statistics
from typing import Any, Callable, Dict, Iterable, List, Sequence

from bench.layers import COMPRESSION_LAYERS, LOWER_LAYERS
from bench.trace import Span, children_of, covered, self_time

__all__ = ["per_layer"]

#: Raw datasets are float32; predictor/quantiser rates are quoted over it.
ELEMENT_BYTES = 4

_PHASES = ("plan", "compress", "stream", "group", "transfer", "decompress")
_ENCODE = {
    "Compressor.compress",
    "PredictionPipelineCompressor.encode_one_block",
    "PredictionPipelineCompressor.prepare_shared_codebook",
}
_DECODE = {
    "Compressor.decompress",
    "PredictionPipelineCompressor.decompress_block",
}


def _sum(spans: Iterable[Span], key: str) -> float:
    return float(sum((span.counts or {}).get(key, 0) for span in spans))


def _busy(spans: Iterable[Span]) -> float:
    return sum(span.duration for span in spans)


def _rate_mbps(nbytes: float, seconds: float) -> float:
    return nbytes / seconds / 1e6 if seconds > 0 else 0.0


def _mean_ms(spans: Sequence[Span], scale: float = 1e3) -> float:
    return _busy(spans) / len(spans) * scale if spans else 0.0


def _p50(spans: Sequence[Span], scale: float) -> float:
    return statistics.median(s.duration for s in spans) * scale if spans else 0.0


def _job_ledger(job: Dict[str, Any], spans: List[Span]) -> Dict[str, float]:
    """All span-derived per-layer values of one job."""
    wall = job["wall"]
    n = float(job.get("n", 1))
    by_id = {span.id: span for span in spans}
    kids = children_of(spans)
    by_name: Dict[str, List[Span]] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)

    def named(*names: str) -> List[Span]:
        return [span for name in names for span in by_name.get(name, ())]

    def outermost(group: List[Span], same: Callable[[Span], bool]) -> List[Span]:
        """Spans of ``group`` not caused by another span of the same kind."""
        return [
            span for span in group
            if span.parent not in by_id or not same(by_id[span.parent])
        ]

    out: Dict[str, float] = {}

    # core / service ---------------------------------------------------- #
    steps = named("JobScheduler.step")
    phase_s = {phase: 0.0 for phase in _PHASES}
    for step in steps:
        phase = (step.counts or {}).get("phase")
        if phase in phase_s:
            phase_s[phase] += step.duration
    for phase in _PHASES:
        out[f"core.phase_{phase}_frac"] = phase_s[phase] / wall
    out["core.phase_other_frac"] = max(0.0, 1.0 - sum(phase_s.values()) / wall)
    out["core.verify_self_s"] = sum(
        self_time(step, kids) for step in steps
        if (step.counts or {}).get("phase") == "decompress"
    ) / n
    out["core.streaming_self_s"] = sum(
        self_time(span, kids) for span in named("StreamingPipeline.run")
    ) / n
    out["core.grouping_s"] = _busy(
        named("FileGrouper.build_groups", "FileGrouper.unpack")
    ) / n
    out["core.ledger_coverage_frac"] = covered(
        ((s.start, s.end) for s in spans if s.layer in LOWER_LAYERS),
        job["start"], job["end"],
    ) / wall
    out["compression.job_wall_frac"] = covered(
        ((s.start, s.end) for s in spans if s.layer in COMPRESSION_LAYERS),
        job["start"], job["end"],
    ) / wall
    out["service.submit_ms_p50"] = _p50(named("OcelotService.submit"), 1e3)
    out["service.step_ms_p50"] = _p50(steps, 1e3)
    out["service.steps_per_job"] = len(steps) / n

    # prediction --------------------------------------------------------- #
    out["prediction.plan_ms"] = _busy(named("CompressionPlanner.plan")) * 1e3 / n
    out["prediction.extract_ms"] = _busy(named("FeatureExtractor.extract")) * 1e3 / n

    # compression.sz.pipeline -------------------------------------------- #
    def in_pipeline(span: Span) -> bool:
        return span.layer == "pipeline"

    encode_all = [s for s in spans if s.name in _ENCODE]
    decode_all = [s for s in spans if s.name in _DECODE]
    encode_top = outermost(encode_all, in_pipeline)
    decode_top = outermost(decode_all, in_pipeline)
    # Whole-blob parses on the bulk/grouped paths belong to the decode
    # cost a caller pays; the streamed path never parses a whole blob.
    parse_top = outermost(named("CompressedBlob.from_bytes"),
                          lambda s: s.layer in ("pipeline", "blob"))
    out["pipeline.compress_MBps"] = _rate_mbps(
        _sum(encode_top, "bytes"), _busy(encode_top))
    out["pipeline.decompress_MBps"] = _rate_mbps(
        _sum(decode_top, "bytes"), _busy(decode_top) + _busy(parse_top))
    encode_busy, decode_busy = _busy(encode_top), _busy(decode_top)
    out["pipeline.encode_self_frac"] = (
        sum(self_time(s, kids) for s in encode_all) / encode_busy
        if encode_busy else 0.0)
    out["pipeline.decode_self_frac"] = (
        sum(self_time(s, kids) for s in decode_all) / decode_busy
        if decode_busy else 0.0)
    blocks = _sum(encode_top, "blocks")
    aliased = _sum(encode_top, "aliased")
    out["pipeline.blocks_encoded"] = blocks / n
    out["pipeline.blocks_aliased"] = aliased / n
    out["pipeline.rans_block_frac"] = (
        _sum(encode_top, "rans") / blocks if blocks else 0.0)

    # predictors / quantizer --------------------------------------------- #
    def is_predictor(span: Span) -> bool:
        return span.layer == "predictors"

    p_encode = outermost(named("Predictor.encode_block"), is_predictor)
    p_decode = outermost(named("Predictor.decode_block"), is_predictor)
    out["predictors.encode_MBps"] = _rate_mbps(
        _sum(p_encode, "items") * ELEMENT_BYTES, _busy(p_encode))
    out["predictors.decode_MBps"] = _rate_mbps(
        _sum(p_decode, "items") * ELEMENT_BYTES, _busy(p_decode))
    kept = blocks - aliased
    out["predictors.candidates_per_block"] = len(p_encode) / kept if kept else 0.0
    quantize = named("LinearQuantizer.quantize")
    dequantize = named("LinearQuantizer.dequantize")
    out["quantizer.quantize_MBps"] = _rate_mbps(
        _sum(quantize, "items") * ELEMENT_BYTES, _busy(quantize))
    out["quantizer.dequantize_MBps"] = _rate_mbps(
        _sum(dequantize, "items") * ELEMENT_BYTES, _busy(dequantize))
    items = _sum(quantize, "items")
    out["quantizer.escape_frac"] = _sum(quantize, "escapes") / items if items else 0.0

    # encoders ------------------------------------------------------------ #
    for codec, prefix, encoders in (
        ("huffman", "HuffmanCodec.", ("HuffmanCodec.encode", "HuffmanCodec.encode_with_book")),
        ("rans", "RansCodec.", ("RansCodec.encode_with_table",)),
    ):
        def same_codec(span: Span, prefix: str = prefix) -> bool:
            return span.name.startswith(prefix)

        enc = outermost(named(*encoders), same_codec)
        dec = named(prefix + "decode")
        out[f"{codec}.encode_MBps"] = _rate_mbps(_sum(enc, "bytes"), _busy(enc))
        out[f"{codec}.decode_MBps"] = _rate_mbps(_sum(dec, "bytes"), _busy(dec))
        out[f"{codec}.calls"] = (len(enc) + len(dec)) / n
    deflate = named("DeflateBackend.compress")
    inflate = named("DeflateBackend.decompress")
    out["lossless.compress_MBps"] = _rate_mbps(_sum(deflate, "bytes"), _busy(deflate))
    out["lossless.decompress_MBps"] = _rate_mbps(_sum(inflate, "bytes"), _busy(inflate))

    # blob ----------------------------------------------------------------- #
    out["blob.to_bytes_ms"] = _mean_ms(named("CompressedBlob.to_bytes"))
    out["blob.from_bytes_ms"] = _mean_ms(named("CompressedBlob.from_bytes"))
    out["blob.export_block_us"] = _mean_ms(named("CompressedBlob.export_block"), 1e6)
    out["blob.parse_block_us"] = _mean_ms(named("CompressedBlob.parse_block"), 1e6)
    out["blob.assemble_ms"] = _mean_ms(named("CompressedBlob.assemble"))

    # cache ---------------------------------------------------------------- #
    gets = named("BlobCache.get")
    for tier in ("blob", "block"):
        tier_gets = [s for s in gets if (s.counts or {}).get("tier") == tier]
        hits = sum(1 for s in tier_gets if s.counts["hit"])
        out[f"cache.{tier}_hit_rate"] = hits / len(tier_gets) if tier_gets else 0.0
    digests = named("cache.array_content_digest")
    out["cache.digest_MBps"] = _rate_mbps(_sum(digests, "bytes"), _busy(digests))
    out["cache.get_ms_p50"] = _p50(gets, 1e3)
    out["cache.put_ms_p50"] = _p50(named("BlobCache.put"), 1e3)

    # transfer ------------------------------------------------------------- #
    chunks = named("TransferStream.send_chunk")
    out["transfer.submit_ms"] = _busy(named("TransferService.submit")) * 1e3 / n
    out["transfer.send_chunk_us_p50"] = _p50(chunks, 1e6)
    out["transfer.chunks"] = len(chunks) / n
    return out


def per_layer(jobs: Sequence[Dict[str, Any]], spans: Sequence[Span]) -> Dict[str, Dict[str, Any]]:
    """Median (with quartiles and n) of every span-derived value over ``jobs``.

    Each job is ``{"id", "start", "end", "wall"[, "n"]}``; spans are
    matched to jobs by the id stamped on them.
    """
    by_job: Dict[Any, List[Span]] = {}
    for span in spans:
        by_job.setdefault(span.job, []).append(span)
    rows = [_job_ledger(job, by_job.get(job["id"], [])) for job in jobs]
    return {name: summarize([row[name] for row in rows]) for name in rows[0]}


def summarize(values: Sequence[float]) -> Dict[str, Any]:
    """``median``, ``q1``, ``q3`` and ``n`` of a sample (n may be 1)."""
    values = [float(v) for v in values]
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}
