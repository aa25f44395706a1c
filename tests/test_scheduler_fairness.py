"""Property tests for the WFQ scheduler: determinism, starvation freedom,
and report invariance under arbitrary tenant mixes.

The scheduler's core contract is that *policy moves timelines, never
results*: whatever mix of tenants and submission orders the
queue sees, every job completes (starvation-free), two identical runs
produce byte-identical outcomes (deterministic), and each job's report
equals what a solo run of the same spec produces (WFQ only reorders).
Hypothesis drives random mixes through a real service; a separate test
pins the cancellation contract — nodes freed by a cancelled job are
re-offered to the next tenant in fair-queue order.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import OcelotConfig
from repro.datasets import generate_application
from repro.service import JobStatus, OcelotService, TransferSpec

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")

TENANTS = ("astro", "climate", "fusion")

_DATASET = None
_SOLO_REPORT = None


def _dataset():
    global _DATASET
    if _DATASET is None:
        _DATASET = generate_application(
            "miranda", snapshots=1, scale=0.02, seed=11, fields=["density"]
        )
    return _DATASET


def _config():
    return OcelotConfig(
        error_bound=1e-3,
        compressor="sz3-fast",
        mode="compressed",
        sentinel_enabled=False,
        compression_nodes=2,
        decompression_nodes=2,
        size_scale=20_000.0,
        assumed_compression_throughput_mbps=300.0,
        assumed_decompression_throughput_mbps=500.0,
    )


def _spec(tenant: str) -> TransferSpec:
    return TransferSpec(dataset=_dataset(), source="anvil", destination="cori", tenant=tenant)


def _solo_report() -> dict:
    global _SOLO_REPORT
    if _SOLO_REPORT is None:
        handle = OcelotService(_config()).submit(_spec("solo"))
        _SOLO_REPORT = handle.result().as_dict()
    return _SOLO_REPORT


def _run_mix(mix):
    service = OcelotService(_config())
    handles = [service.submit(_spec(tenant)) for tenant in mix]
    service.run_pending()
    return service, handles


job_mixes = st.lists(st.sampled_from(TENANTS), min_size=1, max_size=6)


class TestWFQProperties:
    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(mix=job_mixes)
    def test_every_mix_completes_deterministically(self, mix):
        service_a, handles_a = _run_mix(mix)

        # Starvation-free: every submitted job reaches COMPLETED with a
        # finite finish time, whatever the tenant mix.
        assert all(h.status is JobStatus.COMPLETED for h in handles_a)
        assert all(h.finished_at is not None for h in handles_a)

        # Reports are invariant under scheduling policy: each job matches
        # a solo run of the same spec exactly (dispatch order only ever
        # moves timelines).
        solo = _solo_report()
        for handle in handles_a:
            report = handle.result().as_dict()
            assert report["timings"]["compression_s"] == solo["timings"]["compression_s"]
            assert report["transferred_bytes"] == solo["transferred_bytes"]
            assert report["compression_ratio"] == solo["compression_ratio"]

        # Deterministic: replaying the identical mix lands every job at
        # the identical simulated times.
        service_b, handles_b = _run_mix(mix)
        assert service_b.makespan_s == service_a.makespan_s
        for left, right in zip(handles_a, handles_b):
            assert left.finished_at == right.finished_at
            assert left.started_at == right.started_at
            assert [s.start_s for s in left.timeline()] == [
                s.start_s for s in right.timeline()
            ]


class TestCancellationUnderContention:
    def test_freed_nodes_reoffered_to_next_fair_tenant(self):
        """Cancelling a queued job hands its node slot to the next tenant.

        Three 8-node jobs from three tenants contend for anvil's 16-node
        partition: only two compress phases fit at once, so the third
        tenant's compress waits in the baseline run.  Cancelling one of
        the leading jobs before it occupies the pool must let the third
        tenant's compress start at t=0 — the freed nodes go to the next
        flow in fair-queue order, not to nobody.
        """
        config = OcelotConfig(
            error_bound=1e-3,
            compressor="sz3-fast",
            mode="compressed",
            sentinel_enabled=False,
            compression_nodes=8,
            decompression_nodes=8,
            size_scale=20_000.0,
            assumed_compression_throughput_mbps=300.0,
            assumed_decompression_throughput_mbps=500.0,
        )

        def _submit_three(service):
            return [
                service.submit(
                    TransferSpec(
                        dataset=_dataset(), source="anvil", destination="cori",
                        tenant=tenant,
                    )
                )
                for tenant in ("a", "b", "c")
            ]

        baseline = OcelotService(config)
        base_handles = _submit_three(baseline)
        baseline.run_pending()
        base_compress = {
            h.tenant: next(s for s in h.timeline() if s.name == "compress")
            for h in base_handles
        }
        # The partition fits two: tenant c queues behind a and b.
        assert base_compress["c"].start_s > 0.0

        service = OcelotService(config)
        handles = _submit_three(service)
        assert handles[1].cancel() is True  # tenant b never runs
        service.run_pending()
        compress = {
            h.tenant: next(s for s in h.timeline() if s.name == "compress")
            for h in handles
            if h.status is JobStatus.COMPLETED
        }
        assert handles[1].status is JobStatus.CANCELLED
        # Tenant c inherited the freed slot: its compress starts with a's.
        assert compress["c"].start_s == pytest.approx(0.0, abs=1e-9)
        assert compress["c"].start_s < base_compress["c"].start_s
        # And the survivors' reports are untouched by the cancellation.
        for handle in (handles[0], handles[2]):
            base = next(
                b for b in base_handles if b.tenant == handle.tenant
            )
            assert (
                handle.result().as_dict()["timings"]
                == base.result().as_dict()["timings"]
            )
