"""Gateway throughput — HTTP overhead, plan-group fan-out, SSE fan-out.

The gateway's claim is that putting HTTP in front of the job service
costs plumbing, not results:

* submitting over REST adds bounded wall-clock overhead versus calling
  ``OcelotService.submit()`` in-process (the driver thread + JSON + TCP
  round-trips), and the overhead ratio gets a CI ceiling so a future
  lock-contention regression fails loudly;
* a 32-job plan group submitted by concurrent HTTP clients completes
  with per-job reports *identical* to direct in-process runs of the
  same spec — scheduling through the gateway moves timelines, never
  numbers;
* one job's event feed fans out over SSE to many simultaneous
  subscribers, each receiving the complete, identical timeline;
* serving cost does not grow with the jobs the gateway retains: over
  400 closed-loop jobs the last quarter's median latency stays within
  1.3x the first quarter's (``latency_drift_ratio``).

Results merge into ``BENCH_gateway.json``; CI runs this file and
uploads the JSON as an artifact alongside the other BENCH files.
"""

from __future__ import annotations

import json
import statistics
import sys
import threading
import time
import urllib.request
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from common import print_table  # noqa: E402

from repro.core import OcelotConfig  # noqa: E402
from repro.gateway import create_gateway, spec_from_payload  # noqa: E402
from repro.service import OcelotService  # noqa: E402

BENCH_JSON = Path(__file__).parent / "BENCH_gateway.json"

RECIPE = {
    "application": "miranda",
    "snapshots": 1,
    "scale": 0.03,
    "seed": 4,
    "fields": ["density", "pressure"],
}
SPEC_JSON = {
    "dataset": RECIPE,
    "source": "anvil",
    "destination": "cori",
    "mode": "compressed",
}

#: The acceptance-scale batch: 32 jobs fanned out by concurrent clients.
GROUP_JOBS = 32
HTTP_CLIENTS = 8
#: Simultaneous SSE subscribers on one job's feed.
SSE_SUBSCRIBERS = 16
#: CI ceiling: the best-of-N HTTP submit+wait wall may cost at most this
#: multiple of the best-of-N in-process equivalent.  Generous — shared
#: CI runners jitter — but a lock-contention regression blows past it.
MAX_HTTP_OVERHEAD_RATIO = 5.0
#: Closed-loop jobs (and the clients pushing them) behind the drift ratio.
DRIFT_JOBS = 400
DRIFT_CLIENTS = 2
#: CI ceiling on p50 latency of the last quarter of ``DRIFT_JOBS`` over
#: the first quarter.  Flat serving reads ~1.0; a per-step or per-submit
#: walk over the retained jobs read 1.6-2.9 over 600 jobs.
MAX_LATENCY_DRIFT_RATIO = 1.3
#: Seconds of request ping-pong run before the drift loop is timed.  A
#: box that has sat idle serves its first second or so of thread
#: hand-offs about twice as fast as the steady state (measured on bare
#: ``/healthz`` requests, no jobs involved), which would read as drift.
SETTLE_S = 2.0
#: Wall-clock trials per path; best-of filters scheduler hiccups (the
#: walls are fractions of a second, so a single preemption would
#: otherwise dominate the ratio).
TRIALS = 3


def _reports_close(a, b, rel=1e-9):
    """Float-tolerant deep equality.

    Phase durations are deterministic, but a job's absolute position on
    the shared clock depends on interleaving, and ``end - start`` is not
    associative — reports agree to the last few ulps, not bit-for-bit.
    """
    if isinstance(a, dict) and isinstance(b, dict):
        return set(a) == set(b) and all(_reports_close(a[k], b[k], rel) for k in a)
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(_reports_close(x, y, rel) for x, y in zip(a, b))
    if isinstance(a, float) and isinstance(b, float):
        return a == b or abs(a - b) <= rel * max(abs(a), abs(b), 1e-12)
    return a == b


def _merge_bench(update: dict) -> None:
    """Merge new measurements into BENCH_gateway.json (all tests write)."""
    payload = {}
    if BENCH_JSON.exists():
        try:
            payload = json.loads(BENCH_JSON.read_text())
        except json.JSONDecodeError:
            payload = {}
    payload.update(update)
    BENCH_JSON.write_text(json.dumps(payload, indent=2) + "\n")


def _config() -> OcelotConfig:
    return OcelotConfig(
        error_bound=1e-3,
        compressor="sz3-fast",
        mode="compressed",
        sentinel_enabled=False,
        size_scale=20_000.0,
        # Deterministic phase timing: the benchmark measures gateway
        # plumbing, not this machine's codec throughput.
        assumed_compression_throughput_mbps=300.0,
        assumed_decompression_throughput_mbps=500.0,
        compression_nodes=2,
        decompression_nodes=2,
    )


def _post(base: str, path: str, payload=None, timeout: float = 60.0):
    data = b"" if payload is None else json.dumps(payload).encode()
    request = urllib.request.Request(
        base + path, data=data, method="POST",
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return json.load(response)


def _get(base: str, path: str, timeout: float = 120.0):
    with urllib.request.urlopen(base + path, timeout=timeout) as response:
        return json.load(response)


def _inprocess_batch(n_jobs: int):
    """Baseline: submit+drain the same specs without any HTTP in the way."""
    service = OcelotService(_config())
    start = time.perf_counter()
    handles = [service.submit(spec_from_payload(SPEC_JSON)) for _ in range(n_jobs)]
    service.run_pending()
    wall_s = time.perf_counter() - start
    reports = [handle.result().as_dict() for handle in handles]
    return wall_s, reports


def _http_batch():
    """One HTTP trial: 8 clients submit+wait 32 jobs on a fresh gateway."""
    gateway = create_gateway(config=_config()).start()
    try:
        job_ids = [[] for _ in range(HTTP_CLIENTS)]
        errors = []
        per_client = GROUP_JOBS // HTTP_CLIENTS

        def client(slot: int):
            try:
                for _ in range(per_client):
                    record = _post(gateway.url, "/v1/jobs", SPEC_JSON)
                    job_ids[slot].append(record["job_id"])
                for job_id in job_ids[slot]:
                    _get(gateway.url, f"/v1/jobs/{job_id}/wait?timeout=120")
            except Exception as exc:  # noqa: BLE001 - fail the bench
                errors.append(exc)

        start = time.perf_counter()
        threads = [threading.Thread(target=client, args=(slot,))
                   for slot in range(HTTP_CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)
        wall_s = time.perf_counter() - start
        assert not errors, errors

        flat_ids = [job_id for slot in job_ids for job_id in slot]
        assert len(flat_ids) == GROUP_JOBS
        reports = [
            _get(gateway.url, f"/v1/jobs/{job_id}")["report"]
            for job_id in flat_ids
        ]
        metrics = _get(gateway.url, "/metricsz")
    finally:
        gateway.stop()
    return wall_s, reports, metrics


def _drift_trial():
    """``DRIFT_JOBS`` closed-loop POST+wait jobs on a fresh gateway.

    Returns the p50 latency of the first and of the last quarter of the
    jobs (in submission order) and the wall of the timed loop.
    """
    latencies = [0.0] * DRIFT_JOBS
    errors = []
    gateway = create_gateway(config=_config()).start()

    def client(slot: int, jobs: int):
        try:
            for i in range(slot, jobs, DRIFT_CLIENTS):
                sent = time.perf_counter()
                record = _post(gateway.url, "/v1/jobs", SPEC_JSON)
                final = _get(gateway.url,
                             f"/v1/jobs/{record['job_id']}/wait?timeout=120")
                latencies[i] = time.perf_counter() - sent
                assert final["status"] == "completed", final
        except Exception as exc:  # noqa: BLE001 - fail the bench
            errors.append(exc)

    def settle(slot: int):
        until = time.perf_counter() + SETTLE_S
        while time.perf_counter() < until:
            _get(gateway.url, "/healthz")

    def run_clients(target, *args: int):
        threads = [threading.Thread(target=target, args=(slot, *args))
                   for slot in range(DRIFT_CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)
        assert not errors, errors

    try:
        run_clients(client, 16)  # imports and caches warm
        run_clients(settle)
        start = time.perf_counter()
        run_clients(client, DRIFT_JOBS)  # overwrites the warm-up's latencies
        wall_s = time.perf_counter() - start
    finally:
        gateway.stop()
    quarter = DRIFT_JOBS // 4
    return (statistics.median(latencies[:quarter]),
            statistics.median(latencies[-quarter:]), wall_s)


class TestGatewayThroughput:
    def test_http_submit_overhead_has_a_ceiling(self):
        """REST submit+complete vs in-process submit+drain, 32 jobs each."""
        inproc_wall, inproc_reports = min(
            (_inprocess_batch(GROUP_JOBS) for _ in range(TRIALS)),
            key=lambda trial: trial[0],
        )
        http_wall, http_reports, metrics = min(
            (_http_batch() for _ in range(TRIALS)),
            key=lambda trial: trial[0],
        )

        # Reports through HTTP match the in-process baseline
        # (scheduling through the gateway moves timelines, not numbers).
        for report in http_reports:
            assert _reports_close(report, inproc_reports[0]), (
                "HTTP report diverged from in-process:\n"
                f"{report}\nvs\n{inproc_reports[0]}"
            )

        overhead = http_wall / max(inproc_wall, 1e-9)
        rows = [
            {"path": "in-process", "jobs": GROUP_JOBS,
             "wall_s": round(inproc_wall, 3),
             "jobs_per_sec_wall": round(GROUP_JOBS / inproc_wall, 2)},
            {"path": f"http x{HTTP_CLIENTS} clients", "jobs": GROUP_JOBS,
             "wall_s": round(http_wall, 3),
             "jobs_per_sec_wall": round(GROUP_JOBS / http_wall, 2)},
        ]
        print_table("Gateway: HTTP submit overhead vs in-process", rows)
        print(f"http/in-process wall ratio: {overhead:.2f}x "
              f"(ceiling {MAX_HTTP_OVERHEAD_RATIO}x)")
        assert overhead <= MAX_HTTP_OVERHEAD_RATIO

        _merge_bench(
            {
                "jobs": GROUP_JOBS,
                "http_clients": HTTP_CLIENTS,
                "inprocess_wall_s": inproc_wall,
                "http_wall_s": http_wall,
                "http_overhead_ratio": overhead,
                "http_jobs_per_sec_wall": GROUP_JOBS / http_wall,
                "simulated_jobs_per_sec": metrics["jobs_per_sec"]["simulated"],
                "bus_events_published": metrics["bus"]["published"],
            }
        )

    def test_latency_stays_flat_as_jobs_accumulate(self):
        """Closed-loop POST+wait jobs: late jobs cost what early ones did."""
        # Best of up to TRIALS, stopping at the first under the ceiling:
        # a host hiccup in one quarter passes on a rerun, a cost that
        # grows with the retained jobs fails every trial.
        for _ in range(TRIALS):
            first, last, wall_s = _drift_trial()
            drift = last / first
            if drift <= MAX_LATENCY_DRIFT_RATIO:
                break
        print_table(
            f"Gateway: latency drift over {DRIFT_JOBS} closed-loop jobs",
            [{"clients": DRIFT_CLIENTS, "jobs": DRIFT_JOBS,
              "first_quarter_p50_ms": round(first * 1e3, 2),
              "last_quarter_p50_ms": round(last * 1e3, 2),
              "latency_drift_ratio": round(drift, 3),
              "jobs_per_sec_wall": round(DRIFT_JOBS / wall_s, 1)}],
        )
        print(f"latency drift: {drift:.2f}x (ceiling {MAX_LATENCY_DRIFT_RATIO}x)")
        assert drift <= MAX_LATENCY_DRIFT_RATIO

        _merge_bench(
            {
                "drift_jobs": DRIFT_JOBS,
                "drift_clients": DRIFT_CLIENTS,
                "drift_first_quarter_p50_ms": first * 1e3,
                "drift_last_quarter_p50_ms": last * 1e3,
                "latency_drift_ratio": drift,
                "drift_jobs_per_sec_wall": DRIFT_JOBS / wall_s,
            }
        )

    def test_plan_group_fan_out_matches_direct_runs(self):
        """One 32-spec plan group; per-job reports equal direct runs."""
        _, inproc_reports = _inprocess_batch(1)
        solo_report = inproc_reports[0]

        gateway = create_gateway(config=_config()).start()
        try:
            start = time.perf_counter()
            group = _post(
                gateway.url, "/v1/plan-groups",
                {"jobs": [SPEC_JSON] * GROUP_JOBS, "label": "bench"},
            )
            for job_id in group["jobs"]:
                _get(gateway.url, f"/v1/jobs/{job_id}/wait?timeout=300",
                     timeout=310.0)
            wall_s = time.perf_counter() - start
            final = _get(gateway.url, f"/v1/plan-groups/{group['group_id']}")
            reports = [
                _get(gateway.url, f"/v1/jobs/{job_id}")["report"]
                for job_id in group["jobs"]
            ]
        finally:
            gateway.stop()

        assert final["status"] == "completed"
        assert final["status_counts"] == {"completed": GROUP_JOBS}
        assert all(_reports_close(report, solo_report) for report in reports)

        print_table(
            f"Gateway: {GROUP_JOBS}-job plan group",
            [{"jobs": GROUP_JOBS, "wall_s": round(wall_s, 3),
              "status": final["status"]}],
        )
        _merge_bench(
            {"plan_group_jobs": GROUP_JOBS, "plan_group_wall_s": wall_s}
        )

    def test_sse_fan_out(self):
        """One job's feed streamed to 16 subscribers, all identical."""
        gateway = create_gateway(config=_config()).start()
        try:
            gateway.driver.pause()  # subscribers attach before any event
            record = _post(gateway.url, "/v1/jobs", SPEC_JSON)
            job_id = record["job_id"]
            feeds = [None] * SSE_SUBSCRIBERS
            errors = []

            def subscribe(slot: int):
                try:
                    url = f"{gateway.url}/v1/jobs/{job_id}/events"
                    with urllib.request.urlopen(url, timeout=120) as response:
                        feeds[slot] = response.read().decode()
                except Exception as exc:  # noqa: BLE001 - fail the bench
                    errors.append(exc)

            threads = [threading.Thread(target=subscribe, args=(slot,))
                       for slot in range(SSE_SUBSCRIBERS)]
            start = time.perf_counter()
            for thread in threads:
                thread.start()
            gateway.driver.resume()
            for thread in threads:
                thread.join(timeout=180)
            wall_s = time.perf_counter() - start
            assert not errors, errors
            events = gateway.driver.events_since(job_id)
        finally:
            gateway.stop()

        frames = [
            chunk for chunk in feeds[0].split("\n\n")
            if chunk and not chunk.startswith(":")
        ]
        data_lines = [line for chunk in frames for line in chunk.split("\n")
                      if line.startswith("data: ")]
        assert [json.loads(line[6:]) for line in data_lines] == [
            event.as_dict() for event in events
        ]
        canonical = [chunk for chunk in feeds[0].split("\n\n")
                     if not chunk.startswith(":")]
        for feed in feeds[1:]:
            assert [chunk for chunk in feed.split("\n\n")
                    if not chunk.startswith(":")] == canonical

        events_per_sec = SSE_SUBSCRIBERS * len(events) / max(wall_s, 1e-9)
        print_table(
            f"Gateway: SSE fan-out to {SSE_SUBSCRIBERS} subscribers",
            [{"subscribers": SSE_SUBSCRIBERS, "events_each": len(events),
              "wall_s": round(wall_s, 3),
              "delivered_events_per_sec": round(events_per_sec, 1)}],
        )
        _merge_bench(
            {
                "sse_subscribers": SSE_SUBSCRIBERS,
                "sse_events_each": len(events),
                "sse_wall_s": wall_s,
                "sse_delivered_events_per_sec": events_per_sec,
            }
        )
