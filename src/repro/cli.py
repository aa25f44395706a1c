"""The ``ocelot`` command: the paper's user-facing capabilities (predict
quality, compress, run a compression-accelerated transfer) and the job
service around them (submit, recover, list, serve, cache).

Each subcommand is one row of :data:`COMMANDS`.  Its ``run`` returns
``(exit code, JSON payload, text lines)`` and :func:`main` alone prints:
the payload under ``--json``, the lines otherwise.  A
:class:`~repro.errors.ReproError` ends as one line on stderr and exit 1.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter
from typing import Any, Callable, Dict, Iterable, Iterator, List, NamedTuple, Optional, Tuple
from urllib.error import HTTPError, URLError
from urllib.parse import quote
from urllib.request import urlopen

import numpy as np

from .cache import BlobCache
from .compression import CompressedBlob, available_compressors, create_blocked_compressor
from .compression.sz.encoding import ENTROPY_STAGES, block_model_bytes
from .core import Ocelot, OcelotConfig, ParallelExecutor
from .core.config import VALID_CACHE_MODES, VALID_MODES, VALID_TRANSFER_MODES
from .datasets import application_names, generate_application, generate_field
from .datasets import get_application_spec
from .errors import ConfigurationError, OrchestrationError, ReproError
from .prediction import QualityPredictor, build_training_records, train_test_split_records
from .service import JobStore, OcelotService, TransferSpec
from .transfer import build_testbed
from .utils.sizes import format_bytes, format_duration

__all__ = ["COMMANDS", "Command", "build_parser", "main"]

#: What a subcommand's ``run`` returns: exit code, ``--json`` payload,
#: text lines (any iterable: ``serve`` yields its banner, then blocks).
Result = Tuple[int, Any, Iterable[str]]


class Command(NamedTuple):
    """One ``ocelot`` subcommand."""

    name: str
    help: str
    add_args: Callable[[argparse.ArgumentParser], None]
    run: Callable[[argparse.Namespace], Result]


def _positive_int(value: str) -> int:
    number = int(value)
    if number < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {number}")
    return number


def _fraction(value: str) -> float:
    number = float(value)
    if not 0.0 < number < 1.0:
        raise argparse.ArgumentTypeError(f"must be in (0, 1), got {number}")
    return number


def _flag_table() -> Dict[str, Tuple[str, Dict[str, Any]]]:
    """Every flag, declared once: key -> ``(option, add_argument kwargs)``.

    Built per parser, so ``choices`` list what the registries hold then.
    A row sets the defaults that differ by verb (``scale``, ``snapshots``,
    ``compressor``).
    """
    apps, compressors = application_names(), available_compressors()
    return {
        "application": ("--application", dict(default="cesm", choices=apps)),
        "applications": ("--application", dict(nargs="+", default=["cesm"], choices=apps,
                                              help="one or more applications, a job each")),
        "field": ("--field", dict(help="field name (default: first field)")),
        "input": ("--input", dict(help="path to a .npy array to compress instead")),
        "snapshots": ("--snapshots", dict(type=_positive_int, default=1)),
        "scale": ("--scale", dict(type=float)),
        "copies": ("--copies", dict(type=_positive_int, default=1,
                                    help="submit each dataset this many times")),
        "source": ("--source", dict(default="anvil")),
        "destination": ("--destination", dict(default="cori")),
        "compressor": ("--compressor", dict(default="sz3-fast", choices=compressors)),
        "error-bound": ("--error-bound", dict(type=float, default=1e-3)),
        "bound-mode": ("--mode", dict(dest="error_bound_mode", default="rel",
                                      choices=["rel", "abs"])),
        "size-scale": ("--size-scale", dict(type=float, default=1.0)),
        "mode": ("--mode", dict(default="compressed", choices=VALID_MODES,
                                help="transfer mode of the submitted jobs")),
        "compression-nodes": ("--compression-nodes", dict(
            type=_positive_int, default=4, help="nodes each job requests for compression "
            "(small requests let concurrent jobs overlap on the partition)")),
        "decompression-nodes": ("--decompression-nodes", dict(type=_positive_int, default=4)),
        "block-size": ("--block-size", dict(type=_positive_int, help=(
            "compress each array as independent blocks of this edge length "
            "(default: one block, the array)"))),
        "block-workers": ("--block-workers", dict(type=_positive_int, default=1, help=(
            "threads that (de)compress blocks concurrently; blocks under 131072 elements "
            "(32^3) run inline, where GIL hand-offs would outweigh the overlap"))),
        "adaptive-predictor": ("--adaptive-predictor", dict(action="store_true", help=(
            "per block, rank Lorenzo vs. interpolation on a size statistic of their "
            "quantisation codes and encode only the winner; requires --block-size"))),
        "entropy": ("--entropy", dict(dest="entropy_stage", choices=ENTROPY_STAGES,
                                      help="entropy codec of every block (default: the "
                                           "compressor's registered stage)")),
        "codebook": ("--codebook", dict(default="shared", choices=["shared", "per-block"], help=(
            "one entropy model per file, stored once in the blob header, or one per block"))),
        "output": ("--output", dict(metavar="PATH", help="also write the blob to PATH")),
        "modes": ("--modes", dict(nargs="+", default=list(VALID_MODES))),
        "transfer-mode": ("--transfer-mode", dict(default="bulk", choices=VALID_TRANSFER_MODES,
                                                  help="bulk: compress, ship, decompress in "
                                                       "turn; streamed: ship each block as it "
                                                       "encodes (compressed mode only)")),
        "stream-window": ("--stream-window", dict(type=_positive_int, default=8,
                                                  help="blocks in flight in a streamed run")),
        "cache-dir": ("--cache-dir", dict(metavar="PATH", help=(
            "content-addressed blob cache: repeat transfers of identical data skip "
            "the compress phase (inspect with 'ocelot cache')"))),
        "cache-mode": ("--cache-mode", dict(choices=VALID_CACHE_MODES, help=(
            "off: ignore the cache; read: serve hits, never write; readwrite: also "
            "store new entries (default with --cache-dir)"))),
        "cache-max-bytes": ("--cache-max-bytes", dict(
            type=_positive_int, help="size cap; least-recently-used entries beyond it go")),
        "tenant": ("--tenant", dict(metavar="NAME", help="tenant the jobs are scheduled "
                                    "under (tenants share the scheduler equally)")),
        "events": ("--events", dict(action="store_true", help="print each job's event feed")),
        "state": ("--state", dict(default=".ocelot-jobs.jsonl", metavar="PATH",
                                  help="JobStore log (JSON lines, append-only)")),
        "url": ("--url", dict(metavar="URL", help="query a running gateway "
                              "(e.g. http://host:8080) instead of the job log")),
        "only-tenant": ("--tenant", dict(metavar="NAME", help="only list jobs of this tenant")),
        "job": ("job", dict(help="job id, e.g. job-0001")),
        "blob": ("blob", dict(help="path to a serialized CompressedBlob (e.g. a .sz file)")),
        "train-fraction": ("--train-fraction", dict(type=_fraction, default=0.3)),
        "host": ("--host", dict(default="127.0.0.1")),
        "port": ("--port", dict(type=int, default=8080, help="listen port (0 picks a free one)")),
        "cache-action": ("action", dict(choices=["stats", "clear"])),
        "cache-root": ("--cache-dir", dict(required=True, metavar="PATH",
                                           help="the --cache-dir of past transfers")),
        "json": ("--json", dict(action="store_true", help="emit JSON instead of text")),
    }


#: The flags several verbs share, declared once as groups of table keys.
_GROUPS: Dict[str, Tuple[str, ...]] = {
    "dataset": ("application", "snapshots", "scale"),
    "route": ("source", "destination"),
    "bound": ("compressor", "error-bound"),
    "block": ("block-size", "block-workers", "adaptive-predictor", "entropy", "codebook"),
    "cache": ("cache-dir", "cache-mode", "cache-max-bytes"),
    "service": ("mode", "size-scale", "compression-nodes", "decompression-nodes"),
    "log": ("state", "json"),
}


def _flags(*keys: str, **defaults: Any) -> Callable[[argparse.ArgumentParser], None]:
    """A row's ``add_args``: the flags and groups ``keys``, then its ``defaults``."""

    def add_args(sub: argparse.ArgumentParser) -> None:
        table = _flag_table()
        for key in keys:
            for name in _GROUPS.get(key, (key,)):
                option, kwargs = table[name]
                sub.add_argument(option, **kwargs)
        sub.set_defaults(**defaults)

    return add_args


#: Flags whose value is the ``OcelotConfig`` field of the same name.
_CONFIG_FLAGS = (
    "compressor", "error_bound", "error_bound_mode", "mode", "size_scale", "compression_nodes",
    "decompression_nodes", "block_size", "block_workers", "adaptive_predictor", "entropy_stage",
    "transfer_mode", "stream_window", "cache_dir", "cache_max_bytes",
)


def _config_fields(args: argparse.Namespace, **fixed: Any) -> dict:
    """The ``OcelotConfig`` fields a verb's flags set, plus ``fixed``."""
    flags = vars(args)
    fields = {name: flags[name] for name in _CONFIG_FLAGS if name in flags}
    if "codebook" in flags:
        fields["shared_codebook"] = args.codebook == "shared"
    if "cache_dir" in flags:
        fields["cache_mode"] = args.cache_mode or ("readwrite" if args.cache_dir else "off")
    return {**fields, **fixed}


def _config(args: argparse.Namespace, **fixed: Any) -> OcelotConfig:
    """A verb's configuration; ``OcelotConfig`` is the one validation."""
    return OcelotConfig(**_config_fields(args, **fixed))


def _run_info(_: argparse.Namespace) -> Result:
    testbed = build_testbed()
    lines = ["compressors:", *(f"  - {name}" for name in available_compressors())]
    lines += ["applications:", *(f"  - {name}" for name in application_names())]
    lines.append("endpoints:")
    for name in testbed.service.endpoints():
        info = testbed.endpoint(name).describe()
        lines.append(f"  - {name} ({info['display_name']}, {info['dtn_count']} DTNs)")
    return 0, None, lines


def _run_predict(args: argparse.Namespace) -> Result:
    dataset = generate_application(args.application, snapshots=args.snapshots, scale=args.scale)
    records = build_training_records(
        dataset.fields, error_bounds=(1e-5, 1e-4, 1e-3, 1e-2), compressors=[args.compressor]
    )
    train, test = train_test_split_records(records, train_fraction=args.train_fraction, seed=0)
    predictor = QualityPredictor().fit(train)
    rows = []
    for record in test[:20]:
        pred = predictor.predict_from_features(
            record.features, record.error_bound_abs, record.compressor
        )
        rows.append({
            "field": record.field_name, "eb": record.error_bound_label,
            "CR": round(record.compression_ratio, 2), "P-CR": round(pred.compression_ratio, 2),
            "PSNR": round(record.psnr_db or 0.0, 1), "P-PSNR": round(pred.psnr_db, 1),
        })
    lines = [f"{'field':20s} {'eb':>8s} {'CR':>8s} {'P-CR':>8s} {'PSNR':>8s} {'P-PSNR':>8s}"]
    lines += [
        f"{row['field']:20s} {row['eb']:>8s} {row['CR']:>8.2f} {row['P-CR']:>8.2f} "
        f"{row['PSNR']:>8.1f} {row['P-PSNR']:>8.1f}"
        for row in rows
    ]
    return 0, rows, lines


def _run_compress(args: argparse.Namespace) -> Result:
    config = _config(args)
    if args.input:
        data, label = np.load(args.input), args.input
    else:
        name = args.field or get_application_spec(args.application).fields[0].name
        data = generate_field(args.application, name, scale=args.scale).data
        label = f"{args.application}/{name}"
    compressor = create_blocked_compressor(
        config.compressor, block_shape=config.block_size,
        adaptive_predictor=config.adaptive_predictor,
        block_executor=ParallelExecutor(block_workers=config.block_workers).map_blocks,
        shared_codebook=config.shared_codebook, entropy_stage=config.entropy_stage,
    )
    bound = config.resolved_error_bound()
    result = compressor.compress(data, bound, collect_quality=True)
    if args.output:
        with open(args.output, "wb") as handle:
            handle.write(result.blob.to_bytes())
    stats = result.stats
    payload = {
        "input": label, "shape": list(np.asarray(data).shape),
        "num_blocks": result.blob.num_blocks,
        "original_bytes": stats.original_bytes, "compressed_bytes": stats.compressed_bytes,
        "compression_ratio": round(result.compression_ratio, 3),
        "compression_time_s": round(stats.compression_time_s, 4),
        "psnr_db": round(stats.psnr_db or 0.0, 2), "max_abs_error": stats.max_abs_error,
    }
    lines = [
        f"compressed {label} with {config.compressor} @ {bound.describe()}",
        f"  size: {format_bytes(payload['original_bytes'])} -> "
        f"{format_bytes(payload['compressed_bytes'])} ({payload['compression_ratio']}x)",
        f"  time: {format_duration(payload['compression_time_s'])}"
        f"  PSNR: {payload['psnr_db']} dB  max error: {payload['max_abs_error']:.3g}",
    ]
    return 0, payload, lines


def _run_transfer(args: argparse.Namespace) -> Result:
    ocelot = Ocelot(_config(args))
    dataset = generate_application(args.application, snapshots=args.snapshots, scale=args.scale)
    comparison = ocelot.compare_modes(
        dataset, args.source, args.destination, modes=tuple(args.modes)
    )
    lines: List[str] = []
    for report in comparison.reports.values():
        lines += [report.summary(), ""]
    lines += ["Table VIII-style row:", json.dumps(comparison.table_row(), indent=2)]
    return 0, {mode: report.as_dict() for mode, report in comparison.reports.items()}, lines


def _codebook_summary(blob: CompressedBlob) -> dict:
    """Codebook layout of a blob: shared / per-block, and serialized size.

    A shared codebook's size is read straight off the blob header; the
    models blocks carry themselves are summed by
    :func:`~repro.compression.sz.encoding.block_model_bytes`.
    """
    mode = blob.codebook_mode
    summary = {"mode": mode, "codebook_bytes": len(blob.shared_codebook_bytes or b"")}
    # Only older blobs hold a shared-mode block that escaped the shared book
    # and carries its own codebook (the pooled book covers every block
    # now); count those too, or the readout would be wrong on such a blob.
    own = [e for e in blob.block_index if mode == "per-block" or e.get("codebook") == "block"]
    if mode == "per-block" or own:
        total, summary["blocks_with_own_codebook"] = block_model_bytes(blob, own)
        summary["codebook_bytes"] += total
    return summary


def _run_inspect(args: argparse.Namespace) -> Result:
    with open(args.blob, "rb") as handle:
        data = handle.read()
    blob = CompressedBlob.from_bytes(data)
    entries = [
        {
            "id": entry["id"], "origin": entry["origin"], "shape": entry["shape"],
            **{key: entry.get(key, "") for key in ("predictor", "entropy", "codebook")},
            "section": entry["section"],
            "section_bytes": blob.container.section_size(entry["section"]),
            "alias_of": entry.get("alias_of"),
        }
        for entry in blob.block_index
    ]
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
        "path": args.blob, "format_version": blob.format_version,
        "compressor": blob.compressor, "shape": list(blob.shape), "dtype": blob.dtype,
        "error_bound_abs": blob.error_bound_abs, "serialized_bytes": len(data),
        "num_blocks": blob.num_blocks, "aliased_blocks": blob.aliased_block_count,
        "entropy_stage": entropy_stage, "block_codecs": block_codecs,
        "codebook": _codebook_summary(blob), "blocks": entries,
    }
    lines = [
        f"{args.blob}: Ocelot blob v{payload['format_version']}",
        f"  compressor: {payload['compressor']}  dtype: {payload['dtype']}"
        f"  shape: {tuple(payload['shape'])}",
        f"  error bound (abs): {payload['error_bound_abs']:.3g}"
        f"  serialized: {format_bytes(payload['serialized_bytes'])}",
    ]
    for key, label in (("content_digest", "content digest"), ("cache_key", "cache key")):
        if blob.metadata.get(key):
            payload[key] = blob.metadata[key]
            lines.append(f"  {label}: {payload[key]}")
    split = ", ".join(f"{codec}: {block_codecs[codec]}" for codec in sorted(block_codecs))
    lines += [
        f"  layout: {payload['num_blocks']} independent block(s)",
        f"  entropy: {entropy_stage or 'unknown'} (blocks by codec: {split})",
    ]
    codebook = payload["codebook"]
    if codebook["mode"] == "shared":
        lines.append(f"  codebook: shared (stored once in header, "
                     f"{format_bytes(codebook['codebook_bytes'])})")
    elif codebook["mode"] == "per-block":
        lines.append(f"  codebook: per-block ({codebook.get('blocks_with_own_codebook', 0)} "
                     f"blocks, {format_bytes(codebook['codebook_bytes'])} total)")
    else:
        lines.append("  codebook: none (no entropy stage)")
    lines.append(f"  {'id':>4s} {'origin':>16s} {'shape':>14s} {'predictor':>14s}"
                 f" {'entropy':>8s} {'codebook':>9s} {'bytes':>10s}")
    for entry in entries:
        size = (
            f"={entry['alias_of']:>9d}"
            if entry["alias_of"] is not None
            else f"{entry['section_bytes']:>10d}"
        )
        lines.append(
            f"  {entry['id']:>4d} {str(tuple(entry['origin'])):>16s}"
            f" {str(tuple(entry['shape'])):>14s} {entry['predictor']:>14s}"
            f" {entry['entropy']:>8s} {entry['codebook']:>9s} {size}"
        )
    return 0, payload, lines


def _recorded_jobs(path: str) -> Tuple[List[dict], List[dict]]:
    """``(jobs, log records)`` of the ``JobStore`` log at ``path``, read once.

    Jobs come in submission order.  A job whose batch drained carries
    its full record; one a crash cut short has only its write-ahead
    lines, so the spec is laid flat for the listing either way.
    """
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


def _event_lines(record: dict, indent: str) -> List[str]:
    return [
        f"{indent}[{event['time_s']:10.2f}s] {event['kind']}"
        + (f" {event['phase']}" if event.get("phase") else "")
        for event in record.get("events", [])
    ]


def _percentile(values: List[float], fraction: float) -> float:
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    index = min(len(ordered) - 1, max(0, int(round(fraction * (len(ordered) - 1)))))
    return ordered[index]


def _jobs_summary(records: List[dict]) -> str:
    """One line of aggregate job stats: counts by status and p99 wait."""
    counts = Counter(record.get("status") or "unknown" for record in records)
    parts = [f"{status}={counts[status]}" for status in sorted(counts)]
    waits = [r["wait_s"] for r in records if isinstance(r.get("wait_s"), (int, float))]
    if waits:
        parts.append(f"p50 wait {format_duration(_percentile(waits, 0.50))}")
        parts.append(f"p99 wait {format_duration(_percentile(waits, 0.99))}")
    return f"{len(records)} job(s): " + ", ".join(parts)


def _drain(service: OcelotService, store: JobStore, handles: list) -> Tuple[dict, List[str]]:
    """Run the queued jobs; log and list what only a drained batch knows."""
    service.run_pending()
    # Submissions and terminal states reached the log through the service's
    # write-ahead path; what only a drained batch knows goes after them.
    records = [handle.as_dict() for handle in handles]
    for record in records:
        store.append({"kind": "record", **record})
    store.append({"kind": "batch", "combined_makespan_s": service.makespan_s})
    serial = sum(r.get("makespan_s") or 0.0 for r in records)
    lines = [_JOB_HEADER, *map(_job_row, records),
             f"combined makespan: {format_duration(service.makespan_s)}"
             f"  (serial sum would be {format_duration(serial)})"]
    return {"jobs": records, "combined_makespan_s": service.makespan_s}, lines


def _run_submit(args: argparse.Namespace) -> Result:
    # Every spec carries the flag-derived settings as overrides, so its
    # ``submitted`` line is all ``recover`` needs to rebuild the job.
    settings = _config_fields(args, sentinel_enabled=False)
    store = JobStore(args.state)
    service = OcelotService(OcelotConfig(**settings), store=store)
    handles = []
    for app in args.application:
        dataset = generate_application(app, snapshots=args.snapshots, scale=args.scale)
        for copy in range(args.copies):
            handles.append(service.submit(TransferSpec(
                dataset=dataset, source=args.source, destination=args.destination,
                mode=args.mode, label=f"{app}#{copy}" if args.copies > 1 else app,
                tenant=args.tenant, overrides=settings,
            )))
    payload, lines = _drain(service, store, handles)
    if args.events:
        for record in payload["jobs"]:
            lines += [f"\nevents for {record['job_id']}:", *_event_lines(record, "  ")]
    return 0, payload, lines + [f"job records appended to {args.state}"]


def _run_recover(args: argparse.Namespace) -> Result:
    store = JobStore(args.state)
    service = OcelotService(store=store)
    recovery = service.recover()
    payload, lines = (
        _drain(service, store, recovery.resumed) if recovery.resumed else ({"jobs": []}, [])
    )
    payload["finished"] = [state["job_id"] for state in recovery.finished]
    payload["unrecoverable"] = [state["job_id"] for state in recovery.unrecoverable]
    lines.insert(0, f"{args.state}: resumed {len(recovery.resumed)} job(s), "
                    f"{len(payload['finished'])} already finished, "
                    f"{len(payload['unrecoverable'])} unrecoverable")
    return 0, payload, lines


class _GatewayError(ReproError):
    """A gateway's error response (``code`` is the body's), or no gateway."""

    def __init__(self, message: str, code: str) -> None:
        super().__init__(message)
        self.code = code


def _fetch_gateway_json(url: str) -> Any:
    """GET a gateway route's JSON body."""
    try:
        with urlopen(url, timeout=30) as response:
            return json.load(response)
    except HTTPError as exc:
        try:
            body = json.load(exc)
        except (ValueError, OSError):
            body = {}
        raise _GatewayError(
            body.get("error", str(exc)), body.get("code") or f"http_{exc.code}"
        ) from exc
    except (URLError, OSError) as exc:
        raise _GatewayError(f"cannot reach gateway at {url}: {exc}", "unreachable") from exc


def _run_jobs(args: argparse.Namespace) -> Result:
    if args.url:
        route = f"{args.url.rstrip('/')}/v1/jobs"
        if args.tenant:
            route += f"?tenant={quote(args.tenant)}"
        state = {"jobs": _fetch_gateway_json(route)["jobs"]}
    else:
        jobs, log = _recorded_jobs(args.state)
        state = {"jobs": jobs}
        batches = [r for r in log if r["kind"] == "batch"]
        if batches:
            state["combined_makespan_s"] = batches[-1]["combined_makespan_s"]
    records = [
        record for record in state["jobs"]
        if not args.tenant or (record.get("tenant") or "default") == args.tenant
    ]
    payload = {**state, "jobs": records}
    if not records:
        scope = f" for tenant {args.tenant!r}" if args.tenant else ""
        return 0, payload, [f"no jobs recorded in {args.url or args.state}{scope}"]
    payload["summary"] = _jobs_summary(records)
    lines = [_JOB_HEADER, *map(_job_row, records), payload["summary"]]
    if "combined_makespan_s" in state and not args.tenant:
        lines.append(f"combined makespan (last batch): "
                     f"{format_duration(state['combined_makespan_s'])}")
    return 0, payload, lines


def _run_status(args: argparse.Namespace) -> Result:
    if args.url:
        record = _fetch_gateway_json(f"{args.url.rstrip('/')}/v1/jobs/{quote(args.job)}")
    else:
        recorded, _ = _recorded_jobs(args.state)
        record = next((r for r in recorded if r["job_id"] == args.job), None)
        if record is None:
            raise OrchestrationError(
                f"unknown job {args.job!r}; recorded jobs: {[r['job_id'] for r in recorded]}"
            )
    lines = [_job_row(record)]
    report = record.get("report")
    if report:
        timings = report.get("timings", {})
        lines += [
            f"  phases: wait {format_duration(timings.get('node_wait_s', 0))}"
            f" | compress {format_duration(timings.get('compression_s', 0))}"
            f" | transfer {format_duration(timings.get('transfer_s', 0))}"
            f" | decompress {format_duration(timings.get('decompression_s', 0))}",
            f"  volume: {format_bytes(report.get('total_bytes', 0))}"
            f" -> {format_bytes(report.get('transferred_bytes', 0))} on the wire"
            f" ({report.get('compression_ratio', 0):.2f}x)",
        ]
    if record.get("error"):
        lines.append(f"  error: {record['error']}")
    lines += ["  events:", *_event_lines(record, "    ")]
    # Machine-friendly contract: a FAILED job makes `ocelot status` exit
    # non-zero, so scripts can gate on it without parsing output.
    return (2 if record.get("status") == "failed" else 0), record, lines


def _run_serve(args: argparse.Namespace) -> Result:
    from .gateway import create_gateway

    gateway = create_gateway(
        config=_config(args, sentinel_enabled=False), host=args.host, port=args.port
    )
    return 0, None, _serving(gateway)


def _serving(gateway) -> Iterator[str]:
    """The gateway's banner; then it serves until interrupted."""
    yield f"ocelot gateway listening on {gateway.url}"
    yield ("routes: POST /v1/jobs | GET /v1/jobs[?tenant=] | GET /v1/jobs/{id} "
           "| GET /v1/jobs/{id}/wait | POST /v1/jobs/{id}/cancel "
           "| POST /v1/plan-groups | GET /v1/plan-groups/{id} "
           "| GET /v1/jobs/{id}/events (SSE) | GET /healthz | GET /metricsz")
    try:
        gateway.serve_forever()
    except KeyboardInterrupt:
        yield "shutting down"


def _run_cache(args: argparse.Namespace) -> Result:
    if not os.path.isdir(args.cache_dir):
        raise ConfigurationError(f"no cache directory at {args.cache_dir}")
    if args.action == "clear":
        removed = BlobCache(args.cache_dir, mode="readwrite").clear()
        return 0, {"cache_dir": args.cache_dir, "removed": removed}, [
            f"removed {removed} entries from {args.cache_dir}"
        ]
    summary = BlobCache(args.cache_dir, mode="read").describe()
    cap = f" (cap {format_bytes(summary['max_bytes'])})" if summary["max_bytes"] else ""
    blob = summary["blob"]
    return 0, summary, [
        f"{args.cache_dir}: {summary['total_entries']} entries, "
        f"{format_bytes(summary['total_bytes'])}{cap}",
        f"    blob: {blob['entries']:>6d} entries  {format_bytes(blob['bytes'])}",
    ]


COMMANDS: Tuple[Command, ...] = (
    Command("info", "list compressors, applications and endpoints", _flags(), _run_info),
    Command("predict", "train and evaluate the quality predictor", _flags(
        "dataset", "compressor", "train-fraction", "json", scale=0.05, compressor="sz3",
    ), _run_predict),
    Command("compress", "compress one field and report quality", _flags(
        "application", "field", "input", "bound", "bound-mode", "scale", "block",
        "output", "json", scale=0.08, compressor="sz3",
    ), _run_compress),
    Command("transfer", "simulate an end-to-end dataset transfer", _flags(
        "dataset", "route", "size-scale", "bound", "modes", "block", "transfer-mode",
        "stream-window", "cache", "json", scale=0.04, snapshots=2,
    ), _run_transfer),
    Command("inspect", "print a compressed blob's header and block index",
            _flags("blob", "json"), _run_inspect),
    Command("submit", "submit one or many datasets as concurrent jobs to the job service", _flags(
        "applications", "copies", "route", "snapshots", "scale", "service", "bound", "cache",
        "tenant", "events", "log", scale=0.03,
    ), _run_submit),
    Command("recover", "resume the jobs a crashed submit left pending in the job log",
            _flags("log"), _run_recover),
    Command("jobs", "list jobs recorded in the job log",
            _flags("only-tenant", "url", "log"), _run_jobs),
    Command("status", "show one recorded job (with events)",
            _flags("job", "url", "log"), _run_status),
    Command("serve", "run the HTTP gateway: REST job control + SSE event streams",
            _flags("host", "port", "service", "bound", "cache"), _run_serve),
    Command("cache", "inspect or clear the content-addressed blob cache",
            _flags("cache-action", "cache-root", "json"), _run_cache),
)


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for the ``ocelot`` command."""
    parser = argparse.ArgumentParser(
        prog="ocelot",
        description="Error-bounded lossy compression for wide-area scientific data transfer",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command in COMMANDS:
        command.add_args(sub.add_parser(command.name, help=command.help))
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point for the ``ocelot`` console script."""
    args = build_parser().parse_args(argv)
    run = next(command.run for command in COMMANDS if command.name == args.command)
    try:
        code, payload, lines = run(args)
        if getattr(args, "json", False):
            print(json.dumps(payload, indent=2))
        else:
            for line in lines:
                print(line, flush=True)
    except ReproError as exc:
        print(f"ocelot {args.command}: {exc} ({exc.code})", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
