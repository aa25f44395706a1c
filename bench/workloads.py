"""The four benchmark workloads.

Each workload knows how to build its inputs from the seed (``setup``),
prove its exact compressor configuration honours the error bound on
every distinct input file (``gate``), and run one closed-loop iteration
(``run_job``): the next job is submitted only after the previous report
is back.  Why each exists is recorded in ``BENCHMARK.json`` and the
README; the short version is that every optimisation should have one
workload that exercises it and one that bypasses it.
"""

from __future__ import annotations

import http.client
import json
import os
import shutil
import threading
import time
import urllib.request
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cache import BlobCache
from repro.compression import CompressedBlob, ErrorBound, create_blocked_compressor
from repro.core import OcelotConfig
from repro.core.orchestrator import OcelotOrchestrator
from repro.core.planner import CompressionPlanner
from repro.datasets import generate_application, generate_field
from repro.datasets.base import Field, ScientificDataset
from repro.faas.service import build_faas_service
from repro.gateway import create_gateway, spec_from_payload
from repro.prediction import QualityPredictor, build_training_records
from repro.prediction.training import DEFAULT_ERROR_BOUNDS
from repro.service import OcelotService, TransferSpec
from repro.transfer.testbed import build_testbed

__all__ = ["WORKLOADS", "GatewaySmallJobs", "JobResult", "reports_close"]

#: The predictor's training corpus is a fixed "historical" Miranda
#: snapshot, not a function of ``--seed``: with a seed-dependent corpus
#: the decision tree flips between the 1e-4 and 1e-3 candidates from seed
#: to seed (ratio 2.97 vs 4.36), which would make every metric of the
#: bulk workload bimodal across seeds.  The data being *moved* still
#: comes from the seed.
TRAINING_SEED = 1001


@dataclass
class JobResult:
    """One closed-loop iteration as the harness sees it."""

    wall_s: float
    raw_bytes: int
    compression_ratio: float
    psnr_db: float
    #: Problems found by the workload's own checks (empty = correct).
    errors: List[str] = field(default_factory=list)
    #: Workload-specific extras the per-layer ledger wants.
    extra: Dict[str, Any] = field(default_factory=dict)


def reports_close(a: Any, b: Any, rel: float = 1e-9) -> bool:
    """Float-tolerant deep equality of two report dicts.

    The comparison ``benchmarks/test_gateway_throughput.py`` uses: phase
    durations are deterministic, but a job's absolute position on the
    shared clock depends on interleaving and ``end - start`` is not
    associative, so reports agree to a few ulps, not bit for bit.
    """
    if isinstance(a, dict) and isinstance(b, dict):
        return set(a) == set(b) and all(reports_close(a[k], b[k], rel) for k in a)
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(reports_close(x, y, rel) for x, y in zip(a, b))
    if isinstance(a, float) and isinstance(b, float):
        return a == b or abs(a - b) <= rel * max(abs(a), abs(b), 1e-12)
    return a == b


def bound_tolerance(bound: ErrorBound, data: np.ndarray) -> float:
    """Largest ``|x - x̂|`` that still honours ``bound`` on ``data``.

    The absolute bound plus the float-cast slack ``Compressor.compress
    (verify=True)`` itself allows: the float64 reconstruction is cast back
    to the data's dtype, which rounds by up to ``eps * |value|``.
    """
    slack = float(np.finfo(data.dtype).eps) * float(np.max(np.abs(data)))
    return bound.absolute_for(data) * (1.0 + 1e-9) + slack


def bound_violations(config: OcelotConfig, compressor_name: str, bound: ErrorBound,
                     fields: Sequence[Field]) -> List[str]:
    """Round-trip ``fields`` through the workload's exact compressor.

    Returns one message per file on which some element breaks
    ``|x - x̂| <= eb_abs`` (see :func:`bound_tolerance`).
    """
    compressor = create_blocked_compressor(
        compressor_name,
        block_shape=config.block_size,
        adaptive_predictor=config.adaptive_predictor,
        shared_codebook=config.shared_codebook,
        entropy_stage=config.entropy_stage,
    )
    problems = []
    for data_field in fields:
        data = np.asarray(data_field.data)
        payload = compressor.compress(data, bound).blob.to_bytes()
        recon = compressor.decompress(CompressedBlob.from_bytes(payload))
        worst = float(np.max(np.abs(data.astype(np.float64) - recon.astype(np.float64))))
        if recon.shape != data.shape or not worst <= bound_tolerance(bound, data):
            problems.append(
                f"{data_field.filename}: max |x - x^| = {worst:g} exceeds bound "
                f"{bound.absolute_for(data):g}"
            )
    return problems


def _job_result(report: Any, wall_s: float, raw_bytes: int) -> JobResult:
    return JobResult(
        wall_s=wall_s,
        raw_bytes=raw_bytes,
        compression_ratio=float(report.compression_ratio),
        psnr_db=float(report.measured_psnr_db),
        extra={
            "wan_bytes": int(report.transferred_bytes),
            "sim_wan_s": float(report.timings.transfer_s),
            "max_abs_error": float(report.max_abs_error),
            "predicted": report.predicted_quality,
        },
    )


class _InProcessWorkload:
    """Shared shape of the three ``OcelotService`` workloads."""

    name = ""

    def __init__(self, seed: int, quick: bool, scratch: str) -> None:
        self.seed = seed
        self.quick = quick
        self.scratch = scratch
        self.service: Optional[OcelotService] = None
        self.handle = None
        self.reference: Optional[JobResult] = None
        self._phases_seen = 0

    # -- pieces subclasses provide ------------------------------------- #
    def config(self) -> OcelotConfig:
        raise NotImplementedError

    def build_inputs(self) -> None:
        raise NotImplementedError

    def next_spec(self, k: int) -> TransferSpec:
        raise NotImplementedError

    def gate(self) -> Tuple[int, List[str]]:
        raise NotImplementedError

    # -- shared flow ---------------------------------------------------- #
    def build_service(self) -> OcelotService:
        return OcelotService(self.config())

    def setup(self) -> None:
        """Inputs, service and the first (lazy-init-paying) warm-up job."""
        self.build_inputs()
        self.service = self.build_service()
        self.reference = self.run_job(0)

    def step_label(self) -> str:
        """Phase the in-flight job's last scheduler step produced."""
        timeline = self.handle.timeline() if self.handle is not None else []
        if len(timeline) > self._phases_seen:
            self._phases_seen = len(timeline)
            return timeline[-1].name
        return "final"

    def run_job(self, k: int) -> JobResult:
        spec = self.next_spec(k)
        raw_bytes = sum(f.nbytes for f in spec.dataset)
        self._phases_seen = 0
        start = time.perf_counter()
        self.handle = self.service.submit(spec)
        report = self.handle.result()
        wall_s = time.perf_counter() - start
        self.handle = None
        # Retention is the service's, not the job's, cost: without this the
        # datasets and feeds of every finished job stay alive.
        self.service.clear_finished()
        result = _job_result(report, wall_s, raw_bytes)
        result.extra["start"] = start
        result.errors = self.check(k, report, result)
        return result

    def check(self, k: int, report: Any, result: JobResult) -> List[str]:
        """Inputs are seed-deterministic, so every job must reproduce the
        warm-up's ratio, PSNR and max error."""
        ref = self.reference
        if ref is None:
            return []
        problems = []
        for label, got, want in (
            ("compression_ratio", result.compression_ratio, ref.compression_ratio),
            ("psnr_db", result.psnr_db, ref.psnr_db),
            ("max_abs_error", result.extra["max_abs_error"], ref.extra["max_abs_error"]),
        ):
            if not reports_close(float(got), float(want)):
                problems.append(f"job {k}: {label} {got!r} != warm-up's {want!r}")
        return problems

    def finish(self) -> Dict[str, float]:
        """Workload-specific per-layer values (after the loop)."""
        return {}

    def close(self) -> None:
        pass


class BulkSz3Huffman(_InProcessWorkload):
    """The paper's headline path: predict, compress, ship, decompress+verify."""

    name = "bulk_sz3_huffman"

    def config(self) -> OcelotConfig:
        return OcelotConfig(
            compressor="sz3", block_size=32, entropy_stage="huffman",
            shared_codebook=True, mode="compressed", transfer_mode="bulk",
            block_workers=2, worker_backend="thread", use_prediction=True,
            min_psnr_db=60.0, candidate_error_bounds=(1e-4, 1e-3, 1e-2),
            cache_mode="off", sentinel_enabled=False,
        )

    def build_inputs(self) -> None:
        self.dataset = generate_application(
            "miranda", snapshots=1, scale=0.08 if self.quick else 0.25, seed=self.seed)
        corpus = generate_application(
            "miranda", snapshots=1, scale=0.03 if self.quick else 0.05,
            seed=TRAINING_SEED)
        records = build_training_records(
            corpus.fields, error_bounds=DEFAULT_ERROR_BOUNDS, compressors=("sz3",))
        self.predictor = QualityPredictor().fit(records)

    def build_service(self) -> OcelotService:
        testbed = build_testbed()
        faas = build_faas_service(clock=testbed.clock)
        return OcelotService(
            self.config(), testbed=testbed, faas=faas,
            orchestrator_factory=lambda config: OcelotOrchestrator(
                config=config, testbed=testbed, faas=faas, predictor=self.predictor),
        )

    def next_spec(self, k: int) -> TransferSpec:
        return TransferSpec(dataset=self.dataset, source="anvil", destination="cori")

    def gate(self) -> Tuple[int, List[str]]:
        plan = CompressionPlanner(self.config(), predictor=self.predictor).plan(
            representative=self.dataset.fields[0])
        return self.dataset.file_count, bound_violations(
            self.config(), plan.compressor, plan.error_bound, self.dataset.fields)


class StreamedRansAdaptive(_InProcessWorkload):
    """Same data and route through the streamed, per-block-adaptive path."""

    name = "streamed_rans_adaptive"

    def config(self) -> OcelotConfig:
        return OcelotConfig(
            compressor="sz3", block_size=32, entropy_stage="rans",
            adaptive_predictor=True, shared_codebook=False, mode="compressed",
            transfer_mode="streamed", stream_window=8, block_workers=1,
            use_prediction=False, cache_mode="off", sentinel_enabled=False,
        )

    def build_inputs(self) -> None:
        self.dataset = generate_application(
            "miranda", snapshots=1, scale=0.08 if self.quick else 0.25, seed=self.seed)

    def next_spec(self, k: int) -> TransferSpec:
        return TransferSpec(dataset=self.dataset, source="anvil", destination="cori")

    def gate(self) -> Tuple[int, List[str]]:
        config = self.config()
        return self.dataset.file_count, bound_violations(
            config, config.compressor, config.resolved_error_bound(), self.dataset.fields)


class ResyncCacheGrouped(_InProcessWorkload):
    """Incremental re-sync of a sliding snapshot window through the cache."""

    name = "resync_cache_grouped"
    FIELDS = ("density", "pressure", "velocityx", "viscosity")
    WINDOW = 8
    TENANTS = ("climate", "fusion")

    def __init__(self, seed: int, quick: bool, scratch: str) -> None:
        super().__init__(seed, quick, scratch)
        self.scale = 0.08 if quick else 0.2
        self.cache_dir: Optional[str] = None
        self.cache_cap: Optional[int] = None
        self.orchestrators: List[OcelotOrchestrator] = []
        self.cold_iter_s = 0.0
        self._setups = 0

    def config(self) -> OcelotConfig:
        return OcelotConfig(
            compressor="sz3-fast", block_size=32, mode="grouped",
            cache_mode="readwrite", cache_dir=self.cache_dir,
            cache_max_bytes=self.cache_cap, sentinel_enabled=False,
        )

    def snapshot(self, index: int) -> List[Field]:
        if index not in self.snapshots:
            self.snapshots[index] = [
                generate_field("miranda", name, snapshot=index, scale=self.scale,
                               seed=self.seed)
                for name in self.FIELDS
            ]
        return self.snapshots[index]

    def build_inputs(self) -> None:
        self.snapshots: Dict[int, List[Field]] = {}
        for index in range(self.WINDOW):
            self.snapshot(index)
        # A cold cache per set-up, inside the checkout (the benchmark may
        # not write anywhere else).
        self.close()
        self._setups += 1
        self.cache_dir = os.path.join(
            self.scratch, f"cache-{os.getpid()}-{self._setups}")
        self.cache_cap = None
        self.orchestrators = []

    def build_service(self) -> OcelotService:
        testbed = build_testbed()
        faas = build_faas_service(clock=testbed.clock)

        def factory(config: OcelotConfig) -> OcelotOrchestrator:
            orchestrator = OcelotOrchestrator(config=config, testbed=testbed, faas=faas)
            self.orchestrators.append(orchestrator)
            return orchestrator

        return OcelotService(self.config(), testbed=testbed, faas=faas,
                             orchestrator_factory=factory)

    def setup(self) -> None:
        super().setup()
        # Iteration 0 ran against an empty, uncapped cache (all misses);
        # from here on the cap makes LRU eviction run every iteration.
        self.cold_iter_s = self.reference.wall_s
        window_blob_bytes = BlobCache(self.cache_dir, mode="read").disk_usage("blob")
        self.cache_cap = int(1.5 * window_blob_bytes)

    def prepare(self, k: int) -> None:
        """Generate iteration ``k``'s one new snapshot (outside the timing)."""
        self.snapshot(k + self.WINDOW - 1)
        self.snapshots.pop(k - 1, None)

    def next_spec(self, k: int) -> TransferSpec:
        dataset = ScientificDataset(name="miranda")
        for index in range(k, k + self.WINDOW):
            for data_field in self.snapshot(index):
                dataset.add(data_field)
        overrides = {"cache_max_bytes": self.cache_cap} if self.cache_cap else {}
        return TransferSpec(
            dataset=dataset, source="anvil", destination="cori",
            tenant=self.TENANTS[k % len(self.TENANTS)], overrides=overrides,
        )

    def run_job(self, k: int) -> JobResult:
        self.prepare(k)
        return super().run_job(k)

    def check(self, k: int, report: Any, result: JobResult) -> List[str]:
        """Every window differs, so there is no fixed reference report:
        the cache must serve exactly the 28 files seen before and the
        measured error must sit inside the loosest per-file bound."""
        files = len(self.FIELDS) * self.WINDOW
        new = files if k == 0 else len(self.FIELDS)
        problems = []
        if (report.cache_hits, report.cache_misses) != (files - new, new):
            problems.append(
                f"iteration {k}: cache served {report.cache_hits} hits / "
                f"{report.cache_misses} misses, expected {files - new} / {new}")
        bound = self.config().resolved_error_bound()
        loosest = max(
            bound_tolerance(bound, np.asarray(data_field.data))
            for index in range(k, k + self.WINDOW)
            for data_field in self.snapshot(index)
        )
        if not result.extra["max_abs_error"] <= loosest:
            problems.append(
                f"iteration {k}: max error {result.extra['max_abs_error']:g} "
                f"exceeds the loosest file bound {loosest:g}")
        return problems

    def gate(self) -> Tuple[int, List[str]]:
        config = self.config()
        fields = [f for index in range(self.WINDOW) for f in self.snapshot(index)]
        return len(fields), bound_violations(
            config, config.compressor, config.resolved_error_bound(), fields)

    def finish(self) -> Dict[str, float]:
        warm = self.orchestrators[1:]  # one orchestrator (and cache handle) per job
        return {
            "cache.evictions": sum(
                o.blob_cache.stats.evictions for o in warm) / max(1, len(warm)),
            "cache.disk_bytes": float(
                BlobCache(self.cache_dir, mode="read").disk_usage()),
            "cache.cold_iter_s": self.cold_iter_s,
        }

    def close(self) -> None:
        if self.cache_dir and os.path.isdir(self.cache_dir):
            shutil.rmtree(self.cache_dir, ignore_errors=True)


# --------------------------------------------------------------------- #
# Gateway
# --------------------------------------------------------------------- #
class GatewaySmallJobs:
    """Two closed-loop HTTP clients pushing tiny jobs through the gateway.

    Clients open one connection per request, as ``urllib`` and the repo's
    own ``benchmarks/test_gateway_throughput.py`` do.  (Keep-alive
    connections would add a constant ~80 ms of Nagle/delayed-ACK stall per
    job on this server and bury the per-job plumbing under it.)  State:
    loopback, not a real link.
    """

    name = "gateway_small_jobs"
    CLIENTS = 2
    RECIPE_SEEDS = 16
    #: Anvil-sourced routes only: bebop and cori draw their batch-queue
    #: wait from a shared RNG, so a bebop->cori report depends on submission
    #: order and could not be checked against a reference run.
    ROUTES = (("anvil", "cori"), ("anvil", "bebop"))
    TENANTS = ("climate", "fusion", "astro", "bio")
    #: Jobs per second of ``--seconds``: the job *count* is fixed by the
    #: budget (not the elapsed time), so both sides of a comparison push
    #: the same number of jobs through the O(retained jobs) paths.
    JOBS_PER_BUDGET_SECOND = 50

    def __init__(self, seed: int, quick: bool, scratch: str) -> None:
        self.seed = seed
        self.quick = quick
        self.gateway = None
        self.reference: Dict[Tuple[int, int], Dict[str, Any]] = {}
        #: Raw bytes of one job's dataset (every recipe has the same shape).
        self.raw_bytes = 0

    def config(self) -> OcelotConfig:
        # The benchmarks/test_gateway_throughput.py configuration:
        # deterministic phase timing, so the work left is plumbing.
        return OcelotConfig(
            error_bound=1e-3, compressor="sz3-fast", mode="compressed",
            sentinel_enabled=False, size_scale=20_000.0,
            assumed_compression_throughput_mbps=300.0,
            assumed_decompression_throughput_mbps=500.0,
            compression_nodes=2, decompression_nodes=2,
        )

    def job_count(self, seconds: float) -> int:
        return max(2 * self.CLIENTS, int(round(self.JOBS_PER_BUDGET_SECOND * seconds)))

    def payload(self, i: int) -> Dict[str, Any]:
        source, destination = self.ROUTES[(i // self.RECIPE_SEEDS) % len(self.ROUTES)]
        tenant = self.TENANTS[
            (i // (self.RECIPE_SEEDS * len(self.ROUTES))) % len(self.TENANTS)]
        return {
            "dataset": {
                "application": "miranda", "snapshots": 1, "scale": 0.03,
                "seed": self.seed * 1000 + i % self.RECIPE_SEEDS,
                "fields": ["density", "pressure"],
            },
            "source": source, "destination": destination,
            "mode": "compressed", "tenant": tenant,
        }

    def reference_key(self, i: int) -> Tuple[int, int]:
        return (i % self.RECIPE_SEEDS, (i // self.RECIPE_SEEDS) % len(self.ROUTES))

    # ------------------------------------------------------------------ #
    def boot(self) -> None:
        """A fresh gateway (retained-job state starts from zero)."""
        self.close()
        self.gateway = create_gateway(config=self.config()).start()

    def setup(self) -> None:
        """Boot, then warm up with one pass over every distinct spec."""
        self.boot()
        self.http_loop(2 * self.CLIENTS if self.quick
                       else self.RECIPE_SEEDS * len(self.ROUTES))

    def gate(self) -> Tuple[int, List[str]]:
        """Bound check on every distinct dataset, and the in-process
        reference report of every distinct (recipe, route) spec."""
        config = self.config()
        problems: List[str] = []
        files = 0
        service = OcelotService(config)
        distinct = self.RECIPE_SEEDS * len(self.ROUTES)
        handles = []
        for i in range(distinct):
            spec = spec_from_payload(self.payload(i))
            if i < self.RECIPE_SEEDS:
                files += spec.dataset.file_count
                self.raw_bytes = spec.dataset.total_bytes
                problems += bound_violations(
                    config, config.compressor, config.resolved_error_bound(),
                    spec.dataset.fields)
            handles.append(service.submit(spec))
        service.run_pending()
        for i, handle in enumerate(handles):
            self.reference[self.reference_key(i)] = handle.result().as_dict()
        return files, problems

    # ------------------------------------------------------------------ #
    def _request(self, method: str, path: str, payload: Any = None) -> Any:
        connection = http.client.HTTPConnection(
            self.gateway.host, self.gateway.port, timeout=120)
        try:
            body = None if payload is None else json.dumps(payload)
            connection.request(method, path, body=body,
                               headers={"Content-Type": "application/json"})
            return json.load(connection.getresponse())
        finally:
            connection.close()

    def http_loop(self, jobs: int) -> Tuple[float, List[Dict[str, Any]]]:
        """``jobs`` POST+wait round trips from ``CLIENTS`` closed-loop threads.

        Returns the loop wall and one row per job (in spec order) with its
        latencies and the record ``/wait`` returned.
        """
        rows: List[Optional[Dict[str, Any]]] = [None] * jobs
        errors: List[BaseException] = []

        def client(slot: int) -> None:
            try:
                for i in range(slot, jobs, self.CLIENTS):
                    payload = self.payload(i)
                    sent = time.perf_counter()
                    record = self._request("POST", "/v1/jobs", payload)
                    posted = time.perf_counter()
                    final = self._request(
                        "GET", f"/v1/jobs/{record['job_id']}/wait?timeout=120")
                    done = time.perf_counter()
                    rows[i] = {"i": i, "sent": sent, "post_s": posted - sent,
                               "wait_s": done - posted, "latency_s": done - sent,
                               "record": final}
            except Exception as exc:  # noqa: BLE001 - reported as failed jobs
                errors.append(exc)

        threads = [threading.Thread(target=client, args=(slot,), name=f"bench-client-{slot}")
                   for slot in range(self.CLIENTS)]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=600)
        wall_s = time.perf_counter() - start
        if any(thread.is_alive() for thread in threads):
            raise RuntimeError("gateway client threads did not finish")
        if errors:
            raise errors[0]
        return wall_s, [row for row in rows if row is not None]

    def check_rows(self, rows: Sequence[Dict[str, Any]]) -> List[str]:
        """Every HTTP report must match the in-process run of its spec."""
        problems = []
        for row in rows:
            record = row["record"]
            if record.get("status") != "completed":
                problems.append(f"job {row['i']}: status {record.get('status')!r}")
            elif not reports_close(record.get("report"),
                                   self.reference[self.reference_key(row["i"])]):
                problems.append(f"job {row['i']}: HTTP report differs from in-process")
        return problems

    # ------------------------------------------------------------------ #
    def inprocess_drain(self, jobs: int) -> float:
        """Wall of submit+drain of the same specs on a bare service."""
        service = OcelotService(self.config())
        start = time.perf_counter()
        for i in range(jobs):
            service.submit(spec_from_payload(self.payload(i)))
        service.run_pending()
        return time.perf_counter() - start

    def sse_replay(self, rows: Sequence[Dict[str, Any]], count: int) -> float:
        """Events per second replaying ``count`` finished jobs' feeds."""
        events = 0
        start = time.perf_counter()
        for row in rows[:count]:
            url = f"{self.gateway.url}/v1/jobs/{row['record']['job_id']}/events"
            with urllib.request.urlopen(url, timeout=60) as response:
                events += response.read().count(b"\ndata: ")
        return events / (time.perf_counter() - start)

    def metricsz(self) -> Tuple[float, Dict[str, Any]]:
        start = time.perf_counter()
        metrics = self._request("GET", "/metricsz")
        return time.perf_counter() - start, metrics

    def close(self) -> None:
        if self.gateway is not None:
            self.gateway.stop()
            self.gateway = None


WORKLOADS = {
    workload.name: workload
    for workload in (BulkSz3Huffman, StreamedRansAdaptive, ResyncCacheGrouped,
                     GatewaySmallJobs)
}
