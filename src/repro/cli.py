"""Command-line interface for the Ocelot reproduction.

Subcommands mirror the user-facing capabilities of the paper:

* ``ocelot info`` — list available compressors, applications and endpoints.
* ``ocelot predict`` — train the quality predictor on synthetic data and
  print predicted vs measured ratio/time/PSNR for a field.
* ``ocelot compress`` — compress a generated field (or a ``.npy`` file)
  and report ratio, timing and quality.
* ``ocelot transfer`` — run an end-to-end simulated transfer and print
  the Table VIII-style comparison of direct / compressed / grouped modes
  (``--transfer-mode streamed`` overlaps compress → WAN → decode).
* ``ocelot inspect`` — print a compressed blob's format version and
  block index (debugging aid for streamed blobs).
* ``ocelot submit`` — submit one or many datasets as concurrent jobs to
  the multi-tenant job service, print per-job makespans and the
  combined makespan, and append the job records to a ``JobStore`` log.
* ``ocelot jobs`` — list jobs recorded in that log, or — with
  ``--url`` — the live jobs of a running gateway.
* ``ocelot status <job>`` — show one job's record, including its
  structured event feed; exits non-zero when the job FAILED.
* ``ocelot serve`` — run the HTTP gateway (REST job control, plan
  groups, SSE event streams) in the foreground.
* ``ocelot cache stats|clear`` — inspect or empty the content-addressed
  blob/block cache that ``--cache-dir`` transfers populate.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, List, Optional, Tuple

import numpy as np

from .compression import ErrorBound, available_compressors, create_blocked_compressor
from .core import Ocelot, OcelotConfig, ParallelExecutor
from .datasets import application_names, generate_application, generate_field
from .prediction import build_training_records, train_test_split_records, QualityPredictor
from .utils.sizes import format_bytes, format_duration

__all__ = ["main", "build_parser"]


#: Default ``--state`` of ``submit`` / ``jobs`` / ``status``.
_STATE_DEFAULT = ".ocelot-jobs.jsonl"


def _positive_int(value: str) -> int:
    number = int(value)
    if number < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {number}")
    return number


def _add_block_arguments(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--block-size", type=_positive_int, default=None,
                     help="partition each array into blocks of this edge length "
                          "and compress them independently (default: one block, "
                          "the array)")
    sub.add_argument("--block-workers", type=_positive_int, default=1,
                     help="threads used to (de)compress blocks concurrently; "
                          "they only take blocks of >= 131072 elements (64^3 "
                          "yes, 32^3 no), smaller blocks run inline because "
                          "GIL hand-offs outweigh the overlap")
    sub.add_argument("--adaptive-predictor", action="store_true",
                     help="per-block SZ3-style predictor selection "
                          "(Lorenzo vs. interpolation, ranked on a size "
                          "statistic of their quantisation codes; only the "
                          "winner is encoded, with the --entropy codec); "
                          "requires --block-size")
    sub.add_argument("--entropy", default=None, choices=["huffman", "rans", "none"],
                     help="entropy codec override for pipeline compressors: "
                          "Huffman, interleaved rANS, or bypass; default keeps "
                          "each compressor's registered stage.  Every block is "
                          "coded with it (never chosen per block); with "
                          "--codebook per-block, huffman usually writes the "
                          "fewer bytes")
    sub.add_argument("--codebook", default="shared", choices=["shared", "per-block"],
                     help="entropy model layout in blocked entropy-coded mode: "
                          "one shared codebook/frequency-table per file stored "
                          "once in the blob header (default), or one per block")


def _add_cache_arguments(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--cache-dir", default=None, metavar="PATH",
                     help="content-addressed blob/block cache directory; "
                          "repeat transfers of identical data short-circuit "
                          "the compress phase (inspect with 'ocelot cache')")
    sub.add_argument("--cache-mode", default=None,
                     choices=["off", "read", "readwrite"],
                     help="off: ignore the cache; read: serve hits but never "
                          "write (a shared warm cache tenants must not grow); "
                          "readwrite: serve hits and store new entries "
                          "(default when --cache-dir is given)")
    sub.add_argument("--cache-max-bytes", type=_positive_int, default=None,
                     help="size cap of the cache directory; "
                          "least-recently-used entries beyond it are evicted")


def _cache_config_kwargs(args: argparse.Namespace) -> dict:
    """OcelotConfig cache fields from parsed cache CLI flags."""
    mode = args.cache_mode
    if mode is None:
        mode = "readwrite" if args.cache_dir else "off"
    return {
        "cache_dir": args.cache_dir,
        "cache_mode": mode,
        "cache_max_bytes": args.cache_max_bytes,
    }


def _add_service_arguments(sub: argparse.ArgumentParser) -> None:
    """The per-job configuration ``submit`` and ``serve`` both build."""
    sub.add_argument("--compressor", default="sz3-fast", choices=available_compressors())
    sub.add_argument("--error-bound", type=float, default=1e-3)
    sub.add_argument("--size-scale", type=float, default=1.0)
    sub.add_argument("--compression-nodes", type=_positive_int, default=4,
                     help="nodes each job requests for compression (small "
                          "requests let concurrent jobs overlap on the partition)")
    sub.add_argument("--decompression-nodes", type=_positive_int, default=4)
    _add_cache_arguments(sub)


def _service_config(args: argparse.Namespace) -> OcelotConfig:
    """The :class:`OcelotConfig` of :func:`_add_service_arguments` (plus ``--mode``)."""
    return OcelotConfig(
        error_bound=args.error_bound,
        compressor=args.compressor,
        mode=args.mode,
        size_scale=args.size_scale,
        compression_nodes=args.compression_nodes,
        decompression_nodes=args.decompression_nodes,
        sentinel_enabled=False,
        **_cache_config_kwargs(args),
    )


def _emit_json(payload: Any) -> None:
    json.dump(payload, sys.stdout, indent=2)
    print()


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for the ``ocelot`` command."""
    parser = argparse.ArgumentParser(
        prog="ocelot",
        description="Error-bounded lossy compression for wide-area scientific data transfer",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="list compressors, applications and endpoints")

    predict = sub.add_parser("predict", help="train and evaluate the quality predictor")
    predict.add_argument("--application", default="cesm", choices=application_names())
    predict.add_argument("--compressor", default="sz3", choices=available_compressors())
    predict.add_argument("--scale", type=float, default=0.05)
    predict.add_argument("--snapshots", type=int, default=1)
    predict.add_argument("--train-fraction", type=float, default=0.3)
    predict.add_argument("--json", action="store_true", help="emit JSON instead of text")

    compress = sub.add_parser("compress", help="compress one field and report quality")
    compress.add_argument("--application", default="cesm", choices=application_names())
    compress.add_argument("--field", default=None, help="field name (default: first field)")
    compress.add_argument("--input", default=None, help="path to a .npy array to compress instead")
    compress.add_argument("--compressor", default="sz3", choices=available_compressors())
    compress.add_argument("--error-bound", type=float, default=1e-3)
    compress.add_argument("--mode", default="rel", choices=["rel", "abs"])
    compress.add_argument("--scale", type=float, default=0.08)
    _add_block_arguments(compress)
    compress.add_argument("--stage-timings", action="store_true",
                          help="capture per-stage encode timings "
                               "(predict+quantize / entropy / lossless), print "
                               "them, and stamp them into the blob metadata so "
                               "'ocelot inspect' can report them later "
                               "(the block encode then runs inline)")
    compress.add_argument("--output", default=None, metavar="PATH",
                          help="also write the serialized blob to PATH "
                               "(inspect it with 'ocelot inspect')")
    compress.add_argument("--json", action="store_true")

    transfer = sub.add_parser("transfer", help="simulate an end-to-end dataset transfer")
    transfer.add_argument("--application", default="cesm", choices=application_names())
    transfer.add_argument("--source", default="anvil")
    transfer.add_argument("--destination", default="cori")
    transfer.add_argument("--snapshots", type=int, default=2)
    transfer.add_argument("--scale", type=float, default=0.04)
    transfer.add_argument("--size-scale", type=float, default=1.0)
    transfer.add_argument("--compressor", default="sz3-fast", choices=available_compressors())
    transfer.add_argument("--error-bound", type=float, default=1e-3)
    transfer.add_argument("--modes", nargs="+", default=["direct", "compressed", "grouped"])
    _add_block_arguments(transfer)
    transfer.add_argument("--transfer-mode", default="bulk", choices=["bulk", "streamed"],
                          help="bulk: compress all, transfer all, decompress all; "
                               "streamed: pipeline blocks through the WAN as each "
                               "finishes encoding (compressed mode only)")
    transfer.add_argument("--stream-window", type=_positive_int, default=8,
                          help="bounded in-flight window of the streamed pipeline")
    _add_cache_arguments(transfer)
    transfer.add_argument("--json", action="store_true")

    inspect = sub.add_parser("inspect", help="print a compressed blob's header and block index")
    inspect.add_argument("blob", help="path to a serialized CompressedBlob (e.g. a .sz file)")
    inspect.add_argument("--json", action="store_true")

    submit = sub.add_parser(
        "submit",
        help="submit one or many datasets as concurrent jobs to the job service",
    )
    submit.add_argument("--application", nargs="+", default=["cesm"],
                        choices=application_names(),
                        help="one or more applications; each becomes its own job")
    submit.add_argument("--copies", type=_positive_int, default=1,
                        help="submit each dataset this many times (multi-tenant load)")
    submit.add_argument("--source", default="anvil")
    submit.add_argument("--destination", default="cori")
    submit.add_argument("--mode", default="compressed",
                        choices=["direct", "compressed", "grouped"])
    submit.add_argument("--snapshots", type=int, default=1)
    submit.add_argument("--scale", type=float, default=0.03)
    _add_service_arguments(submit)
    submit.add_argument("--tenant", default=None, metavar="NAME",
                        help="tenant the jobs are scheduled under (the unit of "
                             "weighted fair queueing and admission quotas)")
    submit.add_argument("--priority", default=None, choices=["low", "normal", "high"],
                        help="strict scheduler priority class (higher classes "
                             "dispatch before lower ones)")
    submit.add_argument("--state", default=_STATE_DEFAULT, metavar="PATH",
                        help="JobStore log (JSON lines, append-only) shared by "
                             "submit/jobs/status")
    submit.add_argument("--events", action="store_true",
                        help="print each job's structured event feed")
    submit.add_argument("--json", action="store_true")

    jobs = sub.add_parser("jobs", help="list jobs recorded in the job log")
    jobs.add_argument("--state", default=_STATE_DEFAULT, metavar="PATH")
    jobs.add_argument("--tenant", default=None, metavar="NAME",
                      help="only list jobs of this tenant")
    jobs.add_argument("--url", default=None, metavar="URL",
                      help="query a running gateway (e.g. http://host:8080) "
                           "instead of the local job log")
    jobs.add_argument("--json", action="store_true")

    status = sub.add_parser("status", help="show one recorded job (with events)")
    status.add_argument("job", help="job id, e.g. job-0001")
    status.add_argument("--state", default=_STATE_DEFAULT, metavar="PATH")
    status.add_argument("--url", default=None, metavar="URL",
                        help="query a running gateway instead of the job log")
    status.add_argument("--json", action="store_true")

    serve = sub.add_parser(
        "serve",
        help="run the HTTP gateway: REST job control + SSE event streams",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8080,
                       help="listen port (0 picks a free one)")
    serve.add_argument("--mode", default="compressed",
                       choices=["direct", "compressed", "grouped"],
                       help="default transfer mode for submitted jobs")
    _add_service_arguments(serve)

    cache = sub.add_parser(
        "cache", help="inspect or clear the content-addressed blob/block cache"
    )
    cache.add_argument("action", choices=["stats", "clear"])
    cache.add_argument("--cache-dir", required=True, metavar="PATH",
                       help="cache directory (the --cache-dir of past transfers)")
    cache.add_argument("--tier", default=None, choices=["blob", "block"],
                       help="restrict the action to one tier (default: both)")
    cache.add_argument("--json", action="store_true")
    return parser


def _cmd_info(_: argparse.Namespace) -> int:
    from .transfer import build_testbed

    testbed = build_testbed()
    print("compressors:")
    for name in available_compressors():
        print(f"  - {name}")
    print("applications:")
    for name in application_names():
        print(f"  - {name}")
    print("endpoints:")
    for name in testbed.service.endpoints():
        info = testbed.endpoint(name).describe()
        print(f"  - {name} ({info['display_name']}, {info['dtn_count']} DTNs)")
    return 0


def _cmd_predict(args: argparse.Namespace) -> int:
    dataset = generate_application(args.application, snapshots=args.snapshots, scale=args.scale)
    records = build_training_records(
        dataset.fields,
        error_bounds=(1e-5, 1e-4, 1e-3, 1e-2),
        compressors=[args.compressor],
    )
    train, test = train_test_split_records(records, train_fraction=args.train_fraction, seed=0)
    predictor = QualityPredictor().fit(train)
    rows = []
    for record in test[:20]:
        pred = predictor.predict_from_features(
            record.features, record.error_bound_abs, record.compressor
        )
        rows.append(
            {
                "field": record.field_name,
                "eb": record.error_bound_label,
                "CR": round(record.compression_ratio, 2),
                "P-CR": round(pred.compression_ratio, 2),
                "PSNR": round(record.psnr_db or 0.0, 1),
                "P-PSNR": round(pred.psnr_db, 1),
            }
        )
    if args.json:
        _emit_json(rows)
    else:
        print(f"{'field':20s} {'eb':>8s} {'CR':>8s} {'P-CR':>8s} {'PSNR':>8s} {'P-PSNR':>8s}")
        for row in rows:
            print(
                f"{row['field']:20s} {row['eb']:>8s} {row['CR']:>8.2f} {row['P-CR']:>8.2f} "
                f"{row['PSNR']:>8.1f} {row['P-PSNR']:>8.1f}"
            )
    return 0


_STAGE_LABELS = (
    ("predict_quantize_s", "predict+quantize"),
    ("entropy_s", "entropy"),
    ("lossless_s", "lossless"),
)


def _format_stage_timings(timings: dict) -> str:
    """One line of per-stage encode times with share-of-total percentages."""
    total = sum(timings.get(key, 0.0) for key, _ in _STAGE_LABELS)
    parts = []
    for key, label in _STAGE_LABELS:
        value = timings.get(key, 0.0)
        share = f" ({value / total:.0%})" if total > 0 else ""
        parts.append(f"{label} {format_duration(value)}{share}")
    return " | ".join(parts)


def _cmd_compress(args: argparse.Namespace) -> int:
    if args.input:
        data = np.load(args.input)
        label = args.input
    else:
        spec_field = args.field
        if spec_field is None:
            from .datasets import get_application_spec

            spec_field = get_application_spec(args.application).fields[0].name
        field = generate_field(args.application, spec_field, scale=args.scale)
        data = field.data
        label = f"{args.application}/{spec_field}"
    compressor = create_blocked_compressor(
        args.compressor,
        block_shape=args.block_size,
        adaptive_predictor=args.adaptive_predictor,
        block_executor=ParallelExecutor(block_workers=args.block_workers).map_blocks,
        shared_codebook=args.codebook == "shared",
        entropy_stage=args.entropy,
    )
    compressor.collect_stage_timings = args.stage_timings
    bound = ErrorBound(value=args.error_bound, mode=args.mode)
    result = compressor.compress(data, bound, collect_quality=True)
    if args.output:
        with open(args.output, "wb") as handle:
            handle.write(result.blob.to_bytes())
    payload = {
        "input": label,
        "shape": list(np.asarray(data).shape),
        "num_blocks": result.blob.num_blocks,
        "original_bytes": result.stats.original_bytes,
        "compressed_bytes": result.stats.compressed_bytes,
        "compression_ratio": round(result.compression_ratio, 3),
        "compression_time_s": round(result.stats.compression_time_s, 4),
        "psnr_db": round(result.stats.psnr_db or 0.0, 2),
        "max_abs_error": result.stats.max_abs_error,
    }
    stage_timings = compressor.last_stage_timings
    if stage_timings:
        payload["stage_timings"] = stage_timings
    if args.json:
        _emit_json(payload)
    else:
        print(f"compressed {label} with {args.compressor} @ {bound.describe()}")
        print(f"  size: {format_bytes(payload['original_bytes'])} -> "
              f"{format_bytes(payload['compressed_bytes'])} ({payload['compression_ratio']}x)")
        print(f"  time: {format_duration(payload['compression_time_s'])}"
              f"  PSNR: {payload['psnr_db']} dB  max error: {payload['max_abs_error']:.3g}")
        if stage_timings:
            print("  encode stages: " + _format_stage_timings(stage_timings))
    return 0


def _cmd_transfer(args: argparse.Namespace) -> int:
    dataset = generate_application(args.application, snapshots=args.snapshots, scale=args.scale)
    config = OcelotConfig(
        error_bound=args.error_bound,
        compressor=args.compressor,
        size_scale=args.size_scale,
        block_size=args.block_size,
        block_workers=args.block_workers,
        adaptive_predictor=args.adaptive_predictor,
        entropy_stage=args.entropy,
        shared_codebook=args.codebook == "shared",
        transfer_mode=args.transfer_mode,
        stream_window=args.stream_window,
        **_cache_config_kwargs(args),
    )
    ocelot = Ocelot(config)
    comparison = ocelot.compare_modes(
        dataset, args.source, args.destination, modes=tuple(args.modes)
    )
    if args.json:
        _emit_json({mode: report.as_dict() for mode, report in comparison.reports.items()})
    else:
        for mode, report in comparison.reports.items():
            print(report.summary())
            print()
        print("Table VIII-style row:")
        print(json.dumps(comparison.table_row(), indent=2))
    return 0


def _codebook_summary(blob) -> dict:
    """Codebook layout of a blob: shared / per-block, and serialized size.

    A shared codebook's size is read straight off the blob header.  In
    per-block mode each block's inner container is decompressed (inspect
    is a debugging aid, so the cost is acceptable) and the block-local
    entropy-model sections — ``codes_codebook`` (Huffman) or
    ``codes_freqs`` (rANS) — are summed.
    """
    from .compression.encoders.lossless import get_lossless_backend
    from .compression.interface import SectionContainer
    from .errors import CompressionError, ConfigurationError, EncodingError

    def per_block_books(entries) -> tuple:
        """(total bytes, count) of block-local entropy-model sections."""
        backend_name = blob.container.header.get("lossless_backend", "")
        try:
            backend = get_lossless_backend(backend_name)
        except ConfigurationError:
            return 0, 0
        total = 0
        blocks_with_books = 0
        for entry in entries:
            try:
                inner = SectionContainer.from_bytes(
                    backend.decompress(blob.container.get_section(entry["section"]))
                )
            except (EncodingError, CompressionError):
                continue
            for section in ("codes_codebook", "codes_freqs"):
                try:
                    total += inner.section_size(section)
                except EncodingError:
                    continue
                blocks_with_books += 1
                break
        return total, blocks_with_books

    mode = blob.codebook_mode
    summary = {"mode": mode, "codebook_bytes": 0}
    if mode == "shared":
        summary["codebook_bytes"] = len(blob.shared_codebook_bytes or b"")
        # Blocks whose alphabet escaped the shared book carry their own
        # codebook — count those too, or the readout would be wrong in
        # exactly the fallback case it exists to debug.
        fallback = [e for e in blob.block_index if e.get("codebook") == "block"]
        if fallback:
            total, blocks_with_books = per_block_books(fallback)
            summary["codebook_bytes"] += total
            summary["blocks_with_own_codebook"] = blocks_with_books
    elif mode == "per-block":
        total, blocks_with_books = per_block_books(blob.block_index)
        summary["codebook_bytes"] = total
        summary["blocks_with_own_codebook"] = blocks_with_books
    return summary


def _cmd_inspect(args: argparse.Namespace) -> int:
    from .compression import CompressedBlob

    with open(args.blob, "rb") as handle:
        data = handle.read()
    blob = CompressedBlob.from_bytes(data)
    entries = []
    for entry in blob.block_index:
        entries.append(
            {
                "id": entry["id"],
                "origin": entry["origin"],
                "shape": entry["shape"],
                "predictor": entry.get("predictor", ""),
                "entropy": entry.get("entropy", ""),
                "codebook": entry.get("codebook", ""),
                "section": entry["section"],
                "section_bytes": blob.container.section_size(entry["section"]),
                "alias_of": entry.get("alias_of"),
            }
        )
    entropy_stage = blob.metadata.get(
        "entropy_stage", blob.container.header.get("entropy_stage", "")
    )
    # Per-block codec split: prefer the counts the compressor stamped
    # into the metadata; otherwise count the index entries' entropy tags
    # (an untagged block was coded with the blob's stage).
    block_codecs = blob.metadata.get("block_codecs")
    if not block_codecs:
        block_codecs = {}
        for entry in entries:
            codec = entry["entropy"] or entropy_stage or "none"
            block_codecs[codec] = block_codecs.get(codec, 0) + 1
    payload = {
        "path": args.blob,
        "format_version": blob.format_version,
        "compressor": blob.compressor,
        "shape": list(blob.shape),
        "dtype": blob.dtype,
        "error_bound_abs": blob.error_bound_abs,
        "serialized_bytes": len(data),
        "num_blocks": blob.num_blocks,
        "aliased_blocks": blob.aliased_block_count,
        "entropy_stage": entropy_stage,
        "block_codecs": block_codecs,
        "codebook": _codebook_summary(blob),
        "blocks": entries,
    }
    for key in ("content_digest", "cache_key"):
        if blob.metadata.get(key):
            payload[key] = blob.metadata[key]
    stage_timings = blob.metadata.get("stage_timings")
    if stage_timings:
        payload["stage_timings"] = stage_timings
    if args.json:
        _emit_json(payload)
        return 0
    print(f"{args.blob}: Ocelot blob v{payload['format_version']}")
    print(f"  compressor: {payload['compressor']}  dtype: {payload['dtype']}"
          f"  shape: {tuple(payload['shape'])}")
    print(f"  error bound (abs): {payload['error_bound_abs']:.3g}"
          f"  serialized: {format_bytes(payload['serialized_bytes'])}")
    if "content_digest" in payload:
        print(f"  content digest: {payload['content_digest']}")
    if "cache_key" in payload:
        print(f"  cache key: {payload['cache_key']}")
    if stage_timings:
        print("  encode stages: " + _format_stage_timings(stage_timings))
    aliased = payload["aliased_blocks"]
    dedup = f", {aliased} deduped as aliases" if aliased else ""
    print(f"  layout: {payload['num_blocks']} independent block(s){dedup}")
    split = ", ".join(f"{codec}: {block_codecs[codec]}" for codec in sorted(block_codecs))
    print(f"  entropy: {entropy_stage or 'unknown'} (blocks by codec: {split})")
    codebook = payload["codebook"]
    if codebook["mode"] == "shared":
        print(f"  codebook: shared (stored once in header, "
              f"{format_bytes(codebook['codebook_bytes'])})")
    elif codebook["mode"] == "per-block":
        print(f"  codebook: per-block ({codebook.get('blocks_with_own_codebook', 0)} "
              f"blocks, {format_bytes(codebook['codebook_bytes'])} total)")
    else:
        print("  codebook: none (no entropy stage)")
    print(f"  {'id':>4s} {'origin':>16s} {'shape':>14s} {'predictor':>14s}"
          f" {'entropy':>8s} {'codebook':>9s} {'bytes':>10s}")
    for entry in entries:
        size = (
            f"={entry['alias_of']:>9d}"
            if entry["alias_of"] is not None
            else f"{entry['section_bytes']:>10d}"
        )
        print(
            f"  {entry['id']:>4d} {str(tuple(entry['origin'])):>16s}"
            f" {str(tuple(entry['shape'])):>14s} {entry['predictor']:>14s}"
            f" {entry['entropy']:>8s} {entry['codebook']:>9s} {size}"
        )
    return 0


def _recorded_jobs(path: str) -> Tuple[List[dict], List[dict]]:
    """``(jobs, log records)`` of the ``JobStore`` log at ``path``, read once.

    Jobs come in submission order.  A job whose batch drained carries
    its full record; one a crash cut short has only its write-ahead
    lines, so the spec is laid flat for the listing either way.
    """
    from .service import JobStore

    store = JobStore(path)
    records = store.load()
    jobs = [{**(job.get("spec") or {}), **job} for job in store.replay(records).values()]
    return jobs, records


def _job_row(record: dict) -> str:
    makespan = record.get("makespan_s")
    report = record.get("report") or {}
    return (
        f"{record['job_id']:>10s} {record.get('status', ''):>10s}"
        f" {record.get('tenant') or 'default':>10s}"
        f" {record.get('dataset', ''):>10s}"
        f" {record.get('source', '')}->{record.get('destination', ''):<8s}"
        f" {record.get('mode') or 'config':>10s}"
        f" {format_duration(makespan) if makespan is not None else '-':>10s}"
        f" {report.get('compression_ratio', 0) or 0:>7.2f}x"
    )


_JOB_HEADER = (
    f"{'job':>10s} {'status':>10s} {'tenant':>10s} {'dataset':>10s} {'route':>15s}"
    f" {'mode':>10s} {'makespan':>10s} {'ratio':>8s}"
)


def _percentile(values: List[float], fraction: float) -> float:
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    index = min(len(ordered) - 1, max(0, int(round(fraction * (len(ordered) - 1)))))
    return ordered[index]


def _jobs_summary(records: List[dict]) -> str:
    """One line of aggregate job stats: counts by status and p99 wait."""
    counts: dict = {}
    for record in records:
        status = record.get("status") or "unknown"
        counts[status] = counts.get(status, 0) + 1
    parts = [f"{status}={counts[status]}" for status in sorted(counts)]
    waits = [
        record["wait_s"] for record in records
        if isinstance(record.get("wait_s"), (int, float))
    ]
    if waits:
        parts.append(f"p50 wait {format_duration(_percentile(waits, 0.50))}")
        parts.append(f"p99 wait {format_duration(_percentile(waits, 0.99))}")
    return f"{len(records)} job(s): " + ", ".join(parts)


def _cmd_submit(args: argparse.Namespace) -> int:
    from .service import JobStore, OcelotService, TransferSpec

    store = JobStore(args.state)
    service = OcelotService(_service_config(args), store=store)
    handles = []
    for app in args.application:
        dataset = generate_application(app, snapshots=args.snapshots, scale=args.scale)
        for copy in range(args.copies):
            handles.append(
                service.submit(
                    TransferSpec(
                        dataset=dataset,
                        source=args.source,
                        destination=args.destination,
                        mode=args.mode,
                        label=f"{app}#{copy}" if args.copies > 1 else app,
                        tenant=args.tenant,
                        priority=args.priority,
                    )
                )
            )
    service.run_pending()
    # Submissions and terminal states reached the log through the service's
    # write-ahead path; what only a drained batch knows goes after them.
    records = [handle.as_dict() for handle in handles]
    for record in records:
        store.append({"kind": "record", **record})
    store.append({"kind": "batch", "combined_makespan_s": service.makespan_s})
    if args.json:
        _emit_json({"jobs": records, "combined_makespan_s": service.makespan_s})
        return 0
    print(_JOB_HEADER)
    for record in records:
        print(_job_row(record))
    total = sum(r.get("makespan_s") or 0.0 for r in records)
    print(f"combined makespan: {format_duration(service.makespan_s)}"
          f"  (serial sum would be {format_duration(total)})")
    if args.events:
        for record in records:
            print(f"\nevents for {record['job_id']}:")
            for event in record.get("events", []):
                phase = f" {event['phase']}" if event.get("phase") else ""
                print(f"  [{event['time_s']:10.2f}s] {event['kind']}{phase}")
    print(f"job records appended to {args.state}")
    return 0


def _fetch_gateway_json(url: str) -> tuple:
    """GET a gateway route; returns ``(payload, error_message)``."""
    from urllib.error import HTTPError, URLError
    from urllib.request import urlopen

    try:
        with urlopen(url, timeout=30) as response:
            return json.load(response), None
    except HTTPError as exc:
        try:
            payload = json.load(exc)
            return None, f"{payload.get('error', exc)} (code {payload.get('code')})"
        except (ValueError, OSError):
            return None, str(exc)
    except (URLError, OSError) as exc:
        return None, f"cannot reach gateway at {url}: {exc}"


def _cmd_jobs(args: argparse.Namespace) -> int:
    if args.url:
        route = f"{args.url.rstrip('/')}/v1/jobs"
        if args.tenant:
            from urllib.parse import quote

            route += f"?tenant={quote(args.tenant)}"
        payload, error = _fetch_gateway_json(route)
        if error:
            print(error, file=sys.stderr)
            return 1
        state = {"jobs": payload["jobs"]}
    else:
        jobs, log = _recorded_jobs(args.state)
        state = {"jobs": jobs}
        batches = [r for r in log if r["kind"] == "batch"]
        if batches:
            state["combined_makespan_s"] = batches[-1]["combined_makespan_s"]
    records = state["jobs"]
    if args.tenant:
        records = [
            record for record in records
            if (record.get("tenant") or "default") == args.tenant
        ]
    if args.json:
        payload = dict(state)
        payload["jobs"] = records
        if records:
            payload["summary"] = _jobs_summary(records)
        _emit_json(payload)
        return 0
    if not records:
        scope = f" for tenant {args.tenant!r}" if args.tenant else ""
        print(f"no jobs recorded in {args.state}{scope}")
        return 0
    print(_JOB_HEADER)
    for record in records:
        print(_job_row(record))
    print(_jobs_summary(records))
    if "combined_makespan_s" in state and not args.tenant:
        print(f"combined makespan (last batch): "
              f"{format_duration(state['combined_makespan_s'])}")
    return 0


def _cmd_status(args: argparse.Namespace) -> int:
    if args.url:
        from urllib.parse import quote

        record, error = _fetch_gateway_json(
            f"{args.url.rstrip('/')}/v1/jobs/{quote(args.job)}"
        )
        if error:
            print(error, file=sys.stderr)
            return 1
    else:
        recorded, _ = _recorded_jobs(args.state)
        record = next((r for r in recorded if r["job_id"] == args.job), None)
        if record is None:
            print(f"unknown job {args.job!r}; recorded jobs: "
                  f"{[r['job_id'] for r in recorded]}", file=sys.stderr)
            return 1
    # Machine-friendly contract: a FAILED job makes `ocelot status` exit
    # non-zero, so scripts can gate on it without parsing output.
    exit_code = 2 if record.get("status") == "failed" else 0
    if args.json:
        _emit_json(record)
        return exit_code
    print(_job_row(record))
    report = record.get("report")
    if report:
        timings = report.get("timings", {})
        print(f"  phases: wait {format_duration(timings.get('node_wait_s', 0))}"
              f" | compress {format_duration(timings.get('compression_s', 0))}"
              f" | transfer {format_duration(timings.get('transfer_s', 0))}"
              f" | decompress {format_duration(timings.get('decompression_s', 0))}")
        print(f"  volume: {format_bytes(report.get('total_bytes', 0))}"
              f" -> {format_bytes(report.get('transferred_bytes', 0))} on the wire"
              f" ({report.get('compression_ratio', 0):.2f}x)")
    if record.get("error"):
        print(f"  error: {record['error']}")
    print("  events:")
    for event in record.get("events", []):
        phase = f" {event['phase']}" if event.get("phase") else ""
        print(f"    [{event['time_s']:10.2f}s] {event['kind']}{phase}")
    return exit_code


def _cmd_serve(args: argparse.Namespace) -> int:
    from .gateway import create_gateway

    gateway = create_gateway(config=_service_config(args), host=args.host, port=args.port)
    print(f"ocelot gateway listening on {gateway.url}", flush=True)
    print("routes: POST /v1/jobs | GET /v1/jobs[?tenant=] | GET /v1/jobs/{id} "
          "| GET /v1/jobs/{id}/wait | POST /v1/jobs/{id}/cancel "
          "| POST /v1/plan-groups | GET /v1/plan-groups/{id} "
          "| GET /v1/jobs/{id}/events (SSE) | GET /healthz | GET /metricsz",
          flush=True)
    try:
        gateway.serve_forever()
    except KeyboardInterrupt:
        print("shutting down")
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    from .cache import BlobCache

    cache = BlobCache(args.cache_dir, mode="readwrite")
    if args.action == "clear":
        removed = cache.clear(args.tier)
        if args.json:
            _emit_json({"cache_dir": args.cache_dir, "removed": removed})
        else:
            scope = f"{args.tier} tier" if args.tier else "both tiers"
            print(f"removed {removed} entries ({scope}) from {args.cache_dir}")
        return 0
    summary = cache.describe()
    if args.tier:
        summary["tiers"] = {args.tier: summary["tiers"][args.tier]}
    if args.json:
        _emit_json(summary)
        return 0
    print(f"{args.cache_dir}: {summary['total_entries']} entries, "
          f"{format_bytes(summary['total_bytes'])}"
          + (f" (cap {format_bytes(summary['max_bytes'])})" if summary["max_bytes"] else ""))
    for tier, info in summary["tiers"].items():
        print(f"  {tier:>6s}: {info['entries']:>6d} entries  {format_bytes(info['bytes'])}")
    return 0


_COMMANDS = {
    "info": _cmd_info,
    "predict": _cmd_predict,
    "compress": _cmd_compress,
    "transfer": _cmd_transfer,
    "inspect": _cmd_inspect,
    "submit": _cmd_submit,
    "jobs": _cmd_jobs,
    "status": _cmd_status,
    "serve": _cmd_serve,
    "cache": _cmd_cache,
}


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point for the ``ocelot`` console script."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "adaptive_predictor", False) and not getattr(args, "block_size", None):
        parser.error("--adaptive-predictor requires --block-size")
    if args.command in ("transfer", "submit", "serve"):
        if args.cache_mode not in (None, "off") and not args.cache_dir:
            parser.error("--cache-mode requires --cache-dir")
    handler = _COMMANDS[args.command]
    return handler(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
