"""Gateway throughput — what HTTP may not change, and what each job costs.

The gateway's claim is that putting HTTP in front of the job service
costs plumbing, not results.  (D) deterministic, all four:

* a 32-job batch submitted by 8 concurrent HTTP clients reports what
  ``OcelotService.submit()`` reports in-process for the same spec —
  scheduling through the gateway moves timelines, never numbers;
* a 32-job plan group completes with per-job reports *identical* to
  direct in-process runs of the same spec;
* one job's event feed fans out over SSE to many simultaneous
  subscribers, each receiving the complete, identical timeline;
* work per job does not grow with the jobs the gateway retains: over
  64 closed-loop jobs every feed has the first job's length, the bus
  published exactly their sum and dropped nothing, and the server
  answered exactly two requests per job.

How long the plumbing takes is ``bench/``'s ``gateway_small_jobs``
workload: ``gateway.http_overhead_ratio`` (HTTP loop / in-process
drain), ``gateway.latency_drift_ratio`` (last / first quarter p50),
``jobs_per_s``, ``gateway.sse_replay_events_per_s``.
"""

from __future__ import annotations

import json
import threading
import urllib.request

from common import print_table

from repro.core import OcelotConfig
from repro.gateway import create_gateway, spec_from_payload
from repro.service import OcelotService

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
#: Closed-loop jobs (and the clients pushing them) the gateway retains
#: while the per-job work is counted.
RETAINED_JOBS = 64
CLOSED_LOOP_CLIENTS = 2


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


def _inprocess_report() -> dict:
    """Baseline: the same spec submitted and drained with no HTTP in the way."""
    service = OcelotService(_config())
    handle = service.submit(spec_from_payload(SPEC_JSON))
    service.run_pending()
    return handle.result().as_dict()


def _run_clients(client, count: int, before_join=lambda: None) -> None:
    """Run ``client(slot)`` on ``count`` threads; any exception fails the bench."""
    errors = []

    def guarded(slot: int):
        try:
            client(slot)
        except Exception as exc:  # noqa: BLE001 - fail the bench
            errors.append(exc)

    threads = [threading.Thread(target=guarded, args=(slot,)) for slot in range(count)]
    for thread in threads:
        thread.start()
    before_join()
    for thread in threads:
        thread.join(timeout=300)
    assert not errors and not any(thread.is_alive() for thread in threads), errors


def _http_batch():
    """8 clients submit+wait 32 jobs on a fresh gateway."""
    gateway = create_gateway(config=_config()).start()
    try:
        job_ids = [[] for _ in range(HTTP_CLIENTS)]
        per_client = GROUP_JOBS // HTTP_CLIENTS

        def client(slot: int):
            for _ in range(per_client):
                record = _post(gateway.url, "/v1/jobs", SPEC_JSON)
                job_ids[slot].append(record["job_id"])
            for job_id in job_ids[slot]:
                _get(gateway.url, f"/v1/jobs/{job_id}/wait?timeout=120")

        _run_clients(client, HTTP_CLIENTS)

        flat_ids = [job_id for slot in job_ids for job_id in slot]
        assert len(flat_ids) == GROUP_JOBS
        reports = [
            _get(gateway.url, f"/v1/jobs/{job_id}")["report"]
            for job_id in flat_ids
        ]
        metrics = _get(gateway.url, "/metricsz")
    finally:
        gateway.stop()
    return reports, metrics


def _closed_loop():
    """``RETAINED_JOBS`` closed-loop POST+wait jobs on a fresh gateway.

    Returns every job's record in submission order and the final
    ``/metricsz`` snapshot.
    """
    job_ids = [None] * RETAINED_JOBS
    gateway = create_gateway(config=_config()).start()

    def client(slot: int):
        for i in range(slot, RETAINED_JOBS, CLOSED_LOOP_CLIENTS):
            record = _post(gateway.url, "/v1/jobs", SPEC_JSON)
            final = _get(gateway.url,
                         f"/v1/jobs/{record['job_id']}/wait?timeout=120")
            assert final["status"] == "completed", final
            job_ids[i] = record["job_id"]

    try:
        _run_clients(client, CLOSED_LOOP_CLIENTS)
        metrics = _get(gateway.url, "/metricsz")
        records = [_get(gateway.url, f"/v1/jobs/{job_id}") for job_id in job_ids]
    finally:
        gateway.stop()
    return records, metrics


class TestGatewayThroughput:
    def test_http_reports_match_in_process(self):
        """32 jobs over REST from 8 clients report what in-process runs do."""
        inproc_report = _inprocess_report()
        http_reports, metrics = _http_batch()

        # Reports through HTTP match the in-process baseline
        # (scheduling through the gateway moves timelines, not numbers).
        for report in http_reports:
            assert report == inproc_report, (
                "HTTP report diverged from in-process:\n"
                f"{report}\nvs\n{inproc_report}"
            )
        assert metrics["jobs"] == {"total": GROUP_JOBS, "completed": GROUP_JOBS}
        assert metrics["bus"]["dropped"] == 0
        print_table(
            "Gateway: HTTP batch vs in-process",
            [{"clients": HTTP_CLIENTS, "jobs": GROUP_JOBS,
              "reports_equal_in_process": len(http_reports),
              "bus_events_published": metrics["bus"]["published"]}],
        )

    def test_work_per_job_stays_flat_as_jobs_accumulate(self):
        """Closed-loop POST+wait jobs: late jobs cost what early ones did, counted."""
        records, metrics = _closed_loop()
        feed_lengths = [len(record["events"]) for record in records]
        print_table(
            f"Gateway: work per job over {RETAINED_JOBS} closed-loop jobs",
            [{"clients": CLOSED_LOOP_CLIENTS, "jobs": RETAINED_JOBS,
              "events_first_job": feed_lengths[0],
              "events_last_job": feed_lengths[-1],
              "bus_published": metrics["bus"]["published"],
              "bus_dropped": metrics["bus"]["dropped"]}],
        )
        assert metrics["jobs"] == {"total": RETAINED_JOBS, "completed": RETAINED_JOBS}
        # Job 64 emitted, published and was asked for exactly what job 1 was.
        assert feed_lengths == [feed_lengths[0]] * RETAINED_JOBS
        assert metrics["bus"]["published"] == sum(feed_lengths)
        assert metrics["bus"]["dropped"] == 0
        assert metrics["http"]["requests"] == {
            "POST /v1/jobs": RETAINED_JOBS,
            "GET /v1/jobs/{id}/wait": RETAINED_JOBS,
            "GET /metricsz": 1,
        }
        assert records[-1]["report"] == records[0]["report"]

    def test_plan_group_fan_out_matches_direct_runs(self):
        """One 32-spec plan group; per-job reports equal direct runs."""
        solo_report = _inprocess_report()

        gateway = create_gateway(config=_config()).start()
        try:
            group = _post(
                gateway.url, "/v1/plan-groups",
                {"jobs": [SPEC_JSON] * GROUP_JOBS, "label": "bench"},
            )
            for job_id in group["jobs"]:
                _get(gateway.url, f"/v1/jobs/{job_id}/wait?timeout=300",
                     timeout=310.0)
            final = _get(gateway.url, f"/v1/plan-groups/{group['group_id']}")
            reports = [
                _get(gateway.url, f"/v1/jobs/{job_id}")["report"]
                for job_id in group["jobs"]
            ]
        finally:
            gateway.stop()

        assert final["status"] == "completed"
        assert final["status_counts"] == {"completed": GROUP_JOBS}
        assert all(report == solo_report for report in reports)

        print_table(
            f"Gateway: {GROUP_JOBS}-job plan group",
            [{"jobs": GROUP_JOBS, "status": final["status"],
              "reports_equal_solo": len(reports)}],
        )

    def test_sse_fan_out(self):
        """One job's feed streamed to 16 subscribers, all identical."""
        gateway = create_gateway(config=_config()).start()
        try:
            gateway.driver.pause()  # subscribers attach before any event
            record = _post(gateway.url, "/v1/jobs", SPEC_JSON)
            job_id = record["job_id"]
            feeds = [None] * SSE_SUBSCRIBERS

            def subscribe(slot: int):
                url = f"{gateway.url}/v1/jobs/{job_id}/events"
                with urllib.request.urlopen(url, timeout=120) as response:
                    feeds[slot] = response.read().decode()

            _run_clients(subscribe, SSE_SUBSCRIBERS, before_join=gateway.driver.resume)
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

        print_table(
            f"Gateway: SSE fan-out to {SSE_SUBSCRIBERS} subscribers",
            [{"subscribers": SSE_SUBSCRIBERS, "events_each": len(events),
              "identical_feeds": len(feeds)}],
        )
