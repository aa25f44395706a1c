"""Service throughput — phase overlap at 8 jobs, tenant scale at 100+.

The job scheduler's claim is architectural, in two parts:

* splitting a transfer into resumable phase steps lets N concurrent
  jobs interleave on the shared simulation clock — job B compresses
  while job A's blobs are on the WAN — so the *aggregate* makespan of a
  batch lands well below the serial sum while every per-job report
  stays identical to a solo run;
* the event-driven core (min-heap ready queues, dict registries, WFQ
  across tenants) makes ``step()`` O(log n), so draining twice the jobs
  takes exactly twice the steps and emits exactly twice the events —
  no step is spent rescanning the queue.

This benchmark measures both: a 1-vs-8 overlap run, and a 100/200-job
tenant-scale run across all three WAN routes recording simulated
jobs/sec, p50/p99 queue wait, per-tenant fairness (Jain's index) and
the scheduler steps and events of each drain.

(D) deterministic: every second below is simulated.  What one step
costs in wall time is ``bench/``'s ``service.step_ms_p50`` /
``service.inprocess_jobs_per_s`` on ``gateway_small_jobs``.
"""

from __future__ import annotations

import math

import pytest

from common import print_table

from repro.core import OcelotConfig
from repro.datasets import generate_application
from repro.faas import NodeWaitModel, build_faas_service
from repro.service import JobStatus, OcelotService, TransferSpec
from repro.transfer import build_testbed

APPLICATION = "miranda"
SCALE = 0.03
#: Stage files at paper-like volumes so WAN and compute times are in the
#: regime where phase overlap matters.
SIZE_SCALE = 40_000.0
CONCURRENT_JOBS = 8
#: The batch must beat the serial sum by at least this factor.
MIN_AGGREGATE_SPEEDUP = 1.5

# --------------------------------------------------------------------- #
# Tenant-scale run (100/200 jobs)
# --------------------------------------------------------------------- #
#: All three calibrated WAN routes of the paper's testbed; jobs are
#: round-robined across them so every link and node pool contends.
ROUTES = (("anvil", "cori"), ("anvil", "bebop"), ("bebop", "cori"))
TENANTS = ("astro", "climate", "fusion", "materials")
SCALE_JOBS = 100
SCALE_JOBS_2X = 200
#: Regression floor: jobs/sec at 100 jobs must beat 10x a solo run's.
MIN_SCALE_SPEEDUP = 10.0
#: Simulated makespans of the 100- and 200-job drains, pinned.
SCALE_MAKESPAN_S = {SCALE_JOBS: 27.0748, SCALE_JOBS_2X: 52.0515}
#: Per-tenant fairness floor (Jain's index over mean turnaround).
MIN_JAIN_INDEX = 0.9


def _config() -> OcelotConfig:
    return OcelotConfig(
        error_bound=1e-3,
        compressor="sz3-fast",
        mode="compressed",
        sentinel_enabled=False,
        size_scale=SIZE_SCALE,
        assumed_compression_throughput_mbps=300.0,
        assumed_decompression_throughput_mbps=500.0,
        # Multi-tenant-sized node requests: 2 of the 16-node partition per
        # job, so up to 8 compressions genuinely overlap.
        compression_nodes=2,
        decompression_nodes=2,
    )


def _run_batch(dataset, n_jobs: int):
    service = OcelotService(_config())
    handles = [
        service.submit(
            TransferSpec(dataset=dataset, source="anvil", destination="cori",
                         label=f"tenant-{i}")
        )
        for i in range(n_jobs)
    ]
    service.run_pending()
    assert all(handle.status is JobStatus.COMPLETED for handle in handles)
    return service, handles


class TestServiceThroughput:
    def test_concurrent_jobs_beat_serial_sum(self):
        dataset = generate_application(APPLICATION, snapshots=1, scale=SCALE, seed=4)

        solo_service, solo_handles = _run_batch(dataset, 1)
        solo_makespan = solo_service.makespan_s

        batch_service, batch_handles = _run_batch(dataset, CONCURRENT_JOBS)
        batch_makespan = batch_service.makespan_s
        serial_sum = CONCURRENT_JOBS * solo_makespan
        speedup = serial_sum / batch_makespan

        rows = [
            {
                "jobs": 1,
                "aggregate_makespan_s": round(solo_makespan, 2),
                "jobs_per_sec": round(1.0 / solo_makespan, 4),
            },
            {
                "jobs": CONCURRENT_JOBS,
                "aggregate_makespan_s": round(batch_makespan, 2),
                "jobs_per_sec": round(CONCURRENT_JOBS / batch_makespan, 4),
            },
        ]
        print_table("Service throughput: 1 vs 8 concurrent jobs", rows)
        print(f"aggregate speedup vs serial: {speedup:.2f}x "
              f"(floor {MIN_AGGREGATE_SPEEDUP}x)")

        # Contention never changes what a job reports, only when it runs.
        solo_report = solo_handles[0].result().as_dict()
        for handle in batch_handles:
            report = handle.result().as_dict()
            assert report["timings"]["compression_s"] == solo_report["timings"]["compression_s"]
            assert report["transferred_bytes"] == solo_report["transferred_bytes"]

        assert batch_makespan < serial_sum
        assert speedup >= MIN_AGGREGATE_SPEEDUP


# --------------------------------------------------------------------- #
# Tenant scale
# --------------------------------------------------------------------- #
def _scaling_config() -> OcelotConfig:
    """Small per-job work with compute dominating the WAN.

    One node per phase so the 16/8/8-node partitions run many jobs at
    once; slow assumed codec throughputs make compute outweigh the WAN.
    """
    return OcelotConfig(
        error_bound=1e-3,
        compressor="sz3-fast",
        mode="compressed",
        sentinel_enabled=False,
        size_scale=2_000.0,
        assumed_compression_throughput_mbps=1.0,
        assumed_decompression_throughput_mbps=2.0,
        compression_nodes=1,
        decompression_nodes=1,
    )


def _scaling_service() -> OcelotService:
    """A service whose batch queues never sample heavy-tail waits.

    Bebop and Cori model bimodal queue waits (occasionally minutes to
    hours, per the paper); a sampled 600 s outlier would swamp a
    scheduler-scalability measurement, so the scaling runs pin every
    endpoint to immediate node grants.
    """
    testbed = build_testbed()
    faas = build_faas_service(
        wait_models={name: NodeWaitModel(kind="immediate")
                     for name in ("anvil", "bebop", "cori")},
    )
    return OcelotService(_scaling_config(), testbed=testbed, faas=faas)


def _submit_scale_batch(service: OcelotService, dataset, n_jobs: int):
    handles = []
    for i in range(n_jobs):
        source, destination = ROUTES[i % len(ROUTES)]
        handles.append(
            service.submit(
                TransferSpec(
                    dataset=dataset,
                    source=source,
                    destination=destination,
                    tenant=TENANTS[i % len(TENANTS)],
                    label=f"scale-{i}",
                )
            )
        )
    return handles


def _queued_s(handle) -> float:
    """Total time a job's phases spent waiting on contended resources."""
    return sum(
        float(event.detail.get("queued_s", 0.0))
        for event in handle.events()
        if event.kind == "phase_finished"
    )


def _percentile(values, fraction: float) -> float:
    """Nearest-rank percentile of a non-empty sequence."""
    ordered = sorted(values)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return float(ordered[rank - 1])


def _jain_index(values) -> float:
    """Jain's fairness index: 1.0 when every tenant gets equal service."""
    total = sum(values)
    squares = sum(v * v for v in values)
    if squares == 0.0:
        return 1.0
    return (total * total) / (len(values) * squares)


def _drain(service: OcelotService, handles):
    """Drain the queue, returning (scheduler steps, simulated makespan)."""
    steps = 0
    while service.scheduler.step():
        steps += 1
    assert all(handle.status is JobStatus.COMPLETED for handle in handles)
    return steps, service.makespan_s


class TestTenantScale:
    def test_hundred_job_scaling(self):
        dataset = generate_application(
            APPLICATION, snapshots=1, scale=0.02, seed=7, fields=["density"]
        )

        # Solo baseline on the first route with the identical per-job config.
        solo_service = _scaling_service()
        solo_handles = _submit_scale_batch(solo_service, dataset, 1)
        solo_steps, solo_makespan = _drain(solo_service, solo_handles)
        jobs_per_sec_1 = 1.0 / solo_makespan

        results = {}
        for n_jobs in (SCALE_JOBS, SCALE_JOBS_2X):
            service = _scaling_service()
            handles = _submit_scale_batch(service, dataset, n_jobs)
            steps, makespan = _drain(service, handles)
            waits = [_queued_s(handle) for handle in handles]
            turnaround = {tenant: [] for tenant in TENANTS}
            for handle in handles:
                turnaround[handle.tenant].append(handle.makespan_s)
            per_tenant_mean = [
                sum(spans) / len(spans) for spans in turnaround.values() if spans
            ]
            results[n_jobs] = {
                "jobs": n_jobs,
                "steps": steps,
                "events": sum(len(handle.events()) for handle in handles),
                "makespan_s": makespan,
                "jobs_per_sec": n_jobs / makespan,
                "wait_p99_s": _percentile(waits, 0.99),
                "jain_fairness": _jain_index(per_tenant_mean),
            }

        scale_speedup = results[SCALE_JOBS]["jobs_per_sec"] / jobs_per_sec_1

        rows = [
            {
                "jobs": 1,
                "steps": solo_steps,
                "events": len(solo_handles[0].events()),
                "makespan_s": round(solo_makespan, 2),
                "jobs_per_sec": round(jobs_per_sec_1, 4),
                "wait_p99_s": 0.0,
                "jain": 1.0,
            }
        ] + [
            {
                "jobs": row["jobs"],
                "steps": row["steps"],
                "events": row["events"],
                "makespan_s": round(row["makespan_s"], 2),
                "jobs_per_sec": round(row["jobs_per_sec"], 4),
                "wait_p99_s": round(row["wait_p99_s"], 2),
                "jain": round(row["jain_fairness"], 4),
            }
            for row in results.values()
        ]
        print_table("Tenant scale: 1 / 100 / 200 jobs over 3 WAN routes", rows)
        print(f"jobs/sec speedup at {SCALE_JOBS} jobs: {scale_speedup:.1f}x "
              f"(floor {MIN_SCALE_SPEEDUP}x)")

        # The scheduler's scalability floors.
        assert scale_speedup >= MIN_SCALE_SPEEDUP
        for row in results.values():
            assert row["jain_fairness"] >= MIN_JAIN_INDEX
            assert row["makespan_s"] == pytest.approx(SCALE_MAKESPAN_S[row["jobs"]], abs=5e-5)
            # Linear drain, exactly: a job costs the steps and events of
            # a solo run however many others are queued beside it, so 200
            # jobs take twice the steps and events of 100.
            assert row["steps"] == row["jobs"] * solo_steps
            assert row["events"] == row["jobs"] * len(solo_handles[0].events())
