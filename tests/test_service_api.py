"""Tests for the job-oriented service API.

Covers the contracts the redesign makes:

* requests are validated at the submit boundary (before staging or any
  clock movement);
* the scheduler multiplexes many concurrent jobs deterministically over
  one testbed, with interleaved makespans and node/link contention, and
  cancellation releases held resources;
* tenants steer dispatch order (start-time fair queueing) without
  ever changing a job's report;
* a service with a job store survives a crash: ``recover()`` finishes
  the persisted batch without re-running (re-billing) finished jobs;
* the legacy blocking wrappers (``Ocelot.transfer_dataset``) produce the
  same reports as driving the orchestrator directly;
* the scheduler is the simulation clock's one owner, so reports compare
  with ``==`` however their jobs ran, and an idle service's clock reads
  its makespan.
"""

from __future__ import annotations

import json

import pytest

from repro.core import Ocelot, OcelotConfig, OcelotOrchestrator
from repro.datasets import generate_application
from repro.errors import ConfigurationError, OrchestrationError
from repro.service import (
    JobStatus,
    JobStore,
    OcelotService,
    TransferSpec,
)

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")

#: A ``submitted`` line ``ocelot submit --tenant acme --priority high
#: --application miranda --scale 0.02 --size-scale 20000`` wrote while the
#: scheduler still had priority classes (kept verbatim, not regenerated).
PRIORITY_ERA_SUBMITTED_LINE = (
    '{"dataset_recipe": {"application": "miranda", "dtype": "float32", "fields": ["density"'
    ', "velocityx", "velocityy", "velocityz", "pressure", "diffusivity", "viscosity"'
    ', "magvort"], "scale": 0.02, "seed": 0, "snapshots": 1}, "job_id": "job-0001"'
    ', "kind": "submitted", "spec": {"dataset": "miranda", "destination": "cori"'
    ', "label": "miranda", "mode": "compressed", "overrides": {"cache_dir": null'
    ', "cache_max_bytes": null, "cache_mode": "off", "compression_nodes": 4'
    ', "compressor": "sz3-fast", "decompression_nodes": 4, "error_bound": 0.001'
    ', "mode": "compressed", "sentinel_enabled": false, "size_scale": 20000.0}'
    ', "priority": "high", "source": "anvil", "tenant": "acme"}, "submitted_at": 0.0}'
)


@pytest.fixture(scope="module")
def tiny_dataset():
    return generate_application("miranda", snapshots=1, scale=0.03, seed=4,
                                fields=["density", "pressure", "velocityx"])


def _config(**kwargs):
    """Compressed mode on two nodes a phase, no sentinel, default throughputs spelled out."""
    defaults = dict(
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
    defaults.update(kwargs)
    return OcelotConfig(**defaults)


def _spec(dataset, **kwargs):
    defaults = dict(dataset=dataset, source="anvil", destination="cori")
    defaults.update(kwargs)
    return TransferSpec(**defaults)


def _drive(phases):
    """Run a phase generator straight through; its return value is the report."""
    while True:
        try:
            next(phases)
        except StopIteration as stop:
            return stop.value


class TestConfigOverrides:
    def test_with_overrides_returns_validated_copy(self):
        base = _config()
        derived = base.with_overrides(error_bound=1e-2, mode="grouped")
        assert derived.error_bound == 1e-2
        assert derived.mode == "grouped"
        assert base.error_bound == 1e-3  # original untouched

    def test_with_overrides_rejects_unknown_field(self):
        with pytest.raises(ConfigurationError, match="unknown OcelotConfig override"):
            _config().with_overrides(warp_factor=9)

    def test_removed_destination_prefix_knob_is_unknown(self):
        with pytest.raises(ConfigurationError, match="unknown OcelotConfig override"):
            OcelotConfig().with_overrides(destination_prefix="/x")

    def test_with_overrides_revalidates(self):
        with pytest.raises(ConfigurationError):
            _config().with_overrides(block_workers=0)

    @pytest.mark.parametrize(
        "override",
        [
            {"compression_nodes": 1.5}, {"decompression_nodes": True},
            {"cores_per_node": "8"}, {"group_world_size": 2.0}, {"block_size": "16"},
            {"block_workers": 1.5}, {"stream_window": None}, {"cache_max_bytes": 1e6},
            {"error_bound": float("nan")}, {"error_bound": float("inf")},
            {"min_psnr_db": float("nan")},
            {"size_scale": float("nan")}, {"assumed_compression_throughput_mbps": float("inf")},
            {"assumed_decompression_throughput_mbps": "500"},
            {"candidate_error_bounds": (1e-3, float("nan"))}, {"use_prediction": "yes"},
            {"sentinel_enabled": 1}, {"shared_codebook": None},
        ],
    )
    def test_with_overrides_rejects_a_malformed_value(self, override):
        """A count that is no integer, a number that is not finite or a flag that
        is no bool fails at the boundary, typed, instead of inside a run."""
        with pytest.raises(ConfigurationError, match=next(iter(override))):
            _config().with_overrides(**override)


class TestSubmitValidation:
    """Bad requests fail at the boundary: no staging, no clock movement."""

    def _assert_pristine(self, service):
        assert service.testbed.clock.now == 0.0
        for name in service.testbed.service.endpoints():
            assert service.testbed.endpoint(name).filesystem.file_count() == 0

    def test_unknown_mode(self, tiny_dataset):
        service = OcelotService(_config())
        with pytest.raises(OrchestrationError, match="unknown transfer mode"):
            service.submit(_spec(tiny_dataset, mode="hyperspeed"))
        self._assert_pristine(service)

    def test_unknown_endpoint(self, tiny_dataset):
        service = OcelotService(_config())
        with pytest.raises(OrchestrationError, match="unknown destination endpoint"):
            service.submit(_spec(tiny_dataset, destination="summit"))
        with pytest.raises(OrchestrationError, match="unknown source endpoint"):
            service.submit(_spec(tiny_dataset, source="summit"))
        self._assert_pristine(service)

    def test_same_source_and_destination(self, tiny_dataset):
        service = OcelotService(_config())
        with pytest.raises(OrchestrationError, match="two distinct endpoints"):
            service.submit(_spec(tiny_dataset, destination="anvil"))
        self._assert_pristine(service)

    def test_unknown_compressor(self, tiny_dataset):
        service = OcelotService(_config())
        with pytest.raises(ConfigurationError, match="unknown compressor"):
            service.submit(_spec(tiny_dataset, overrides={"compressor": "zstd-max"}))
        self._assert_pristine(service)

    def test_invalid_override_value(self, tiny_dataset):
        service = OcelotService(_config())
        with pytest.raises(ConfigurationError):
            service.submit(_spec(tiny_dataset, overrides={"stream_window": 0}))
        self._assert_pristine(service)

    def test_batch_validates_each_spec_once(self, monkeypatch, tiny_dataset):
        validated = []
        validate = TransferSpec.validate
        monkeypatch.setattr(
            TransferSpec, "validate",
            lambda spec, *args: validated.append(spec) or validate(spec, *args),
        )
        service = OcelotService(_config())
        specs = [_spec(tiny_dataset, label=f"s{i}") for i in range(4)]
        handles = service.submit_batch(specs)
        assert validated == specs
        assert [handle.spec for handle in handles] == specs

    def test_batch_with_a_bad_spec_enqueues_nothing(self, tiny_dataset):
        service = OcelotService(_config())
        specs = [_spec(tiny_dataset) for _ in range(4)]
        specs[2] = _spec(tiny_dataset, destination="summit")
        with pytest.raises(OrchestrationError, match=r"^spec #2: unknown destination endpoint"):
            service.submit_batch(specs)
        assert service.jobs() == []
        self._assert_pristine(service)

    def test_legacy_wrapper_validates_at_submit(self, tiny_dataset):
        """transfer_dataset inherits boundary validation from the service."""
        ocelot = Ocelot(_config())
        with pytest.raises(OrchestrationError, match="unknown transfer mode"):
            ocelot.transfer_dataset(tiny_dataset, "anvil", "cori", mode="warp")
        assert ocelot.testbed.clock.now == 0.0
        assert ocelot.testbed.endpoint("anvil").filesystem.file_count() == 0


class TestJobLifecycle:
    def test_submit_returns_pending_handle_without_staging(self, tiny_dataset):
        service = OcelotService(_config())
        handle = service.submit(_spec(tiny_dataset))
        assert handle.status is JobStatus.PENDING
        assert handle.job_id == "job-0001"
        # Nothing ran yet: staging is deferred to the scheduler.
        assert service.testbed.endpoint("anvil").filesystem.file_count() == 0
        kinds = [event.kind for event in handle.events()]
        assert kinds == ["submitted"]

    def test_wait_completes_and_result_reports(self, tiny_dataset):
        service = OcelotService(_config())
        handle = service.submit(_spec(tiny_dataset))
        assert handle.wait() is JobStatus.COMPLETED
        report = handle.result()
        assert report.compression_ratio > 1.0
        assert handle.makespan_s == pytest.approx(report.total_s, rel=1e-12)
        assert service.testbed.clock.now == service.makespan_s

    def test_event_feed_structure(self, tiny_dataset):
        service = OcelotService(_config())
        handle = service.submit(_spec(tiny_dataset))
        handle.wait()
        events = handle.events()
        kinds = [event.kind for event in events]
        assert kinds[0] == "submitted"
        assert kinds[-1] == "completed"
        phases = [e.phase for e in events if e.kind == "phase_started"]
        assert phases == ["stage", "plan", "wait", "compress", "transfer", "decompress"]
        # Per-file progress during compression.
        file_events = [e for e in events if e.kind == "file_compressed"]
        assert len(file_events) == tiny_dataset.file_count
        assert all(e.detail["bytes"] > 0 for e in file_events)
        # Bytes shipped on the wire phase.
        transfer_done = next(
            e for e in events if e.kind == "phase_finished" and e.phase == "transfer"
        )
        assert transfer_done.detail["bytes_shipped"] > 0
        # The completion event surfaces the codec stack that produced the
        # blobs (sz3-fast runs no entropy stage).
        completed = events[-1]
        assert completed.detail["entropy_stage"] == "none"
        assert completed.detail["block_codecs"] is None
        # Event times never move backwards.
        times = [event.time_s for event in events]
        assert times == sorted(times)

    def test_cancel_pending_job_never_runs(self, tiny_dataset):
        service = OcelotService(_config())
        doomed = service.submit(_spec(tiny_dataset))
        survivor = service.submit(_spec(tiny_dataset))
        assert doomed.cancel() is True
        assert doomed.status is JobStatus.CANCELLED
        service.run_pending()
        assert survivor.status is JobStatus.COMPLETED
        with pytest.raises(OrchestrationError, match="cancelled"):
            doomed.result()
        assert doomed.cancel() is False  # already terminal

    def test_cancel_mid_phase_releases_nodes(self, tiny_dataset):
        solo = OcelotService(_config()).submit(_spec(tiny_dataset)).result().as_dict()
        service = OcelotService(_config())
        handle = service.submit(_spec(tiny_dataset))
        # Step to the wait-phase boundary: the job has asked for its
        # compression nodes and is suspended there.
        for _ in range(3):  # stage, plan, wait
            assert service.scheduler.step()
        assert handle.status is JobStatus.RUNNING
        assert handle.cancel() is True
        assert handle.status is JobStatus.CANCELLED
        # The queue is drained; nothing left to step.
        assert service.scheduler.step() is False
        # Nothing is left occupied: the next job runs as if alone.
        later = service.submit(_spec(tiny_dataset))
        service.run_pending()
        assert later.result().as_dict() == solo
        finished = [e for e in later.events() if e.kind == "phase_finished"]
        assert finished and not [e for e in finished if "queued_s" in e.detail]

    def test_failed_job_does_not_poison_the_batch(self, monkeypatch, tiny_dataset):
        """The seam of ``test_phase_faults.py``: one tenant's compress phase raises."""
        from repro.core.phases import PHASES

        real = PHASES["compress"]

        def faulty(orchestrator, record):
            if orchestrator.config.tenant == "victim":
                raise RuntimeError("injected fault in compress")
            return real(orchestrator, record)

        monkeypatch.setitem(PHASES, "compress", faulty)
        service = OcelotService(_config())
        bad = service.submit(_spec(tiny_dataset, overrides={"tenant": "victim"}))
        good = service.submit(_spec(tiny_dataset))
        service.run_pending()
        assert bad.status is JobStatus.FAILED
        assert good.status is JobStatus.COMPLETED
        with pytest.raises(Exception):
            bad.result()
        failed_events = [e for e in bad.events() if e.kind == "failed"]
        assert len(failed_events) == 1 and failed_events[0].detail["error"]


class TestSchedulerInterleaving:
    N_JOBS = 8

    def _run_batch(self, dataset):
        service = OcelotService(_config())
        handles = [service.submit(_spec(dataset)) for _ in range(self.N_JOBS)]
        service.run_pending()
        return service, handles

    def test_eight_concurrent_jobs_all_complete(self, tiny_dataset):
        service, handles = self._run_batch(tiny_dataset)
        assert [h.status for h in handles] == [JobStatus.COMPLETED] * self.N_JOBS

    def test_combined_makespan_beats_serial_sum(self, tiny_dataset):
        service, handles = self._run_batch(tiny_dataset)
        serial_sum = sum(h.result().total_s for h in handles)
        assert service.makespan_s < serial_sum
        # Genuine interleaving: a later job starts one of its phases
        # before an earlier job has finished.
        first_finish = handles[0].finished_at
        later_starts = [h.timeline()[0].start_s for h in handles[1:]]
        assert min(later_starts) < first_finish

    def test_jobs_contend_for_wan_link(self, tiny_dataset):
        """Bulk transfers on one route serialise on the link pool."""
        _, handles = self._run_batch(tiny_dataset)
        spans = sorted(
            (span for h in handles for span in h.timeline() if span.name == "transfer"),
            key=lambda span: span.start_s,
        )
        for earlier, later in zip(spans, spans[1:]):
            assert later.start_s >= earlier.end_s - 1e-9

    def test_per_job_reports_match_solo_run(self, tiny_dataset):
        """Contention changes timelines, never the per-job reports."""
        solo_service = OcelotService(_config())
        solo = solo_service.submit(_spec(tiny_dataset)).result()
        _, handles = self._run_batch(tiny_dataset)
        for handle in handles:
            assert handle.result().as_dict() == solo.as_dict()

    def test_batch_is_deterministic(self, tiny_dataset):
        service_a, handles_a = self._run_batch(tiny_dataset)
        service_b, handles_b = self._run_batch(tiny_dataset)
        assert service_a.makespan_s == service_b.makespan_s
        for left, right in zip(handles_a, handles_b):
            assert left.makespan_s == right.makespan_s
            assert left.result().as_dict() == right.result().as_dict()

    def test_per_job_config_overrides(self, tiny_dataset):
        service = OcelotService(_config())
        loose = service.submit(_spec(tiny_dataset, overrides={"error_bound": 1e-1}))
        tight = service.submit(_spec(tiny_dataset, overrides={"error_bound": 1e-5}))
        service.run_pending()
        assert loose.result().compression_ratio > tight.result().compression_ratio

    def test_same_dataset_tenants_are_isolated(self, tiny_dataset):
        """Concurrent jobs over one dataset never decode each other's blobs.

        Each job's quality metrics must match what a solo run at its own
        error bound produces — regression test for cross-tenant artefact
        clobbering between phase steps.
        """
        solo = {}
        for bound in (1e-2, 1e-6):
            handle = OcelotService(_config()).submit(
                _spec(tiny_dataset, overrides={"error_bound": bound})
            )
            solo[bound] = handle.result()
        service = OcelotService(_config())
        mid = service.submit(_spec(tiny_dataset, overrides={"error_bound": 1e-2}))
        tight = service.submit(_spec(tiny_dataset, overrides={"error_bound": 1e-6}))
        service.run_pending()
        assert mid.result().as_dict() == solo[1e-2].as_dict()
        assert tight.result().as_dict() == solo[1e-6].as_dict()
        assert mid.result().max_abs_error > tight.result().max_abs_error

    def test_node_contention_not_double_counted(self, tiny_dataset):
        """Pool queueing delays a job's phases; its node_wait_s stays solo.

        Three 8-node jobs on a 16-node partition contend for nodes.  The
        timeline pools serialise the third compress phase, but the batch
        scheduler must not *also* charge a backfill deficit into the
        job's reported wait — that would bill the contention twice.
        """
        config_kwargs = dict(compression_nodes=8, decompression_nodes=8)
        solo = OcelotService(_config(**config_kwargs)).submit(
            _spec(tiny_dataset)
        ).result()
        service = OcelotService(_config(**config_kwargs))
        handles = [service.submit(_spec(tiny_dataset)) for _ in range(3)]
        service.run_pending()
        for handle in handles:
            assert handle.result().timings.node_wait_s == solo.timings.node_wait_s
        # The contention is still modelled: the third job's compress phase
        # starts only after a slot frees up, and its event feed reports
        # the queueing delay.
        compress_starts = sorted(
            span.start_s for h in handles for span in h.timeline()
            if span.name == "compress"
        )
        assert compress_starts[2] >= compress_starts[0] + 1e-9
        queued = [
            event.detail["queued_s"]
            for handle in handles
            for event in handle.events()
            if event.kind == "phase_finished" and "queued_s" in event.detail
        ]
        assert queued and max(queued) > 0

    def test_discard_and_clear_finished(self, tiny_dataset):
        service = OcelotService(_config())
        handles = [service.submit(_spec(tiny_dataset)) for _ in range(3)]
        with pytest.raises(OrchestrationError, match="cannot discard"):
            service.discard(handles[0].job_id)  # still pending
        service.run_pending()
        service.discard(handles[0].job_id)
        assert [h.job_id for h in service.jobs()] == [h.job_id for h in handles[1:]]
        assert service.clear_finished() == 2
        assert service.jobs() == []
        # Discarded handles keep their results.
        assert handles[0].result().compression_ratio > 1.0

    def test_substrates_keep_nothing_per_job(self, tiny_dataset):
        """A long-lived service's transfer and FaaS substrates hold no
        record of the jobs that went through them."""

        def held(obj):
            return {
                name: len(value) if hasattr(value, "__len__") else None
                for name, value in vars(obj).items()
            }

        def substrates(service):
            schedulers = {
                name: held(service.faas.scheduler(name))
                for name in service.faas.names()
            }
            return held(service.testbed.service), held(service.faas), schedulers

        service = OcelotService(_config())
        service.submit(_spec(tiny_dataset)).result()
        service.clear_finished()
        before = substrates(service)
        for overrides in ({}, {"transfer_mode": "streamed", "block_size": 16}, {}):
            service.submit(_spec(tiny_dataset, overrides=overrides)).result()
            assert service.clear_finished() == 1
        assert substrates(service) == before

    def test_legacy_wrapper_does_not_accumulate_jobs(self, tiny_dataset):
        ocelot = Ocelot(_config())
        for _ in range(3):
            ocelot.transfer_dataset(tiny_dataset, "anvil", "cori", mode="compressed")
        assert len(ocelot.reports()) == 3
        assert ocelot.service.jobs() == []

    def test_job_lookup_and_listing(self, tiny_dataset):
        service = OcelotService(_config())
        handles = [service.submit(_spec(tiny_dataset)) for _ in range(3)]
        assert [h.job_id for h in service.jobs()] == [h.job_id for h in handles]
        assert service.job(handles[1].job_id) is handles[1]
        with pytest.raises(OrchestrationError, match="unknown job"):
            service.job("job-9999")


class TestOneClockOwner:
    """Phases, streams and transfers return durations; only the scheduler
    moves the clock.  A job's report therefore depends on neither the jobs
    beside it nor the ones before it, bit for bit."""

    STREAMED = {"transfer_mode": "streamed", "block_size": 16}

    def test_mixed_batch_then_single_drains_report_solo_and_sync_the_clock(
        self, tiny_dataset
    ):
        kinds = [
            (destination, streamed)
            for destination in ("cori", "bebop")
            for streamed in (False, True)
        ]

        def spec(kind):
            destination, streamed = kind
            overrides = self.STREAMED if streamed else {}
            return _spec(tiny_dataset, destination=destination, overrides=overrides)

        solo = {
            kind: OcelotService(_config()).submit(spec(kind)).result().as_dict()
            for kind in kinds
        }
        service = OcelotService(_config())
        batch = [(kind, service.submit(spec(kind))) for kind in kinds]
        service.run_pending()
        # The two streamed jobs run on different routes and overlap on the
        # timeline; the clock ends where the timeline does, not later.
        assert service.testbed.clock.now == service.makespan_s
        for kind, handle in batch:
            assert handle.result().as_dict() == solo[kind]
        for kind in (("cori", False), ("bebop", True), ("cori", False)):
            handle = service.submit(spec(kind))
            assert handle.wait() is JobStatus.COMPLETED
            assert handle.result().as_dict() == solo[kind]
            assert service.testbed.clock.now == service.makespan_s


class TestLegacyWrapperEquivalence:
    def test_transfer_dataset_matches_direct_orchestrator_run(self, tiny_dataset):
        """The wrapper reports what the phase generator, driven alone, returns."""
        for mode in ("direct", "compressed", "grouped"):
            via_service = Ocelot(_config()).transfer_dataset(
                tiny_dataset, "anvil", "cori", mode=mode
            )
            phases = OcelotOrchestrator(_config()).iter_phases(
                tiny_dataset, "anvil", "cori", mode=mode
            )
            assert via_service.as_dict() == _drive(phases).as_dict()

    def test_compare_modes_is_repeatable(self, tiny_dataset):
        """Testbed reset between runs makes repeated comparisons identical."""
        ocelot = Ocelot(_config())
        first = ocelot.compare_modes(tiny_dataset, "anvil", "cori")
        second = ocelot.compare_modes(tiny_dataset, "anvil", "cori")
        for mode in first.reports:
            assert first.reports[mode].as_dict() == second.reports[mode].as_dict()

    def test_reset_clock_clears_staged_state(self, tiny_dataset):
        ocelot = Ocelot(_config())
        ocelot.transfer_dataset(tiny_dataset, "anvil", "cori", mode="compressed")
        assert ocelot.testbed.endpoint("anvil").filesystem.file_count() > 0
        ocelot.testbed.reset_clock()
        assert ocelot.testbed.clock.now == 0.0
        for name in ocelot.testbed.service.endpoints():
            assert ocelot.testbed.endpoint(name).filesystem.file_count() == 0

    def test_streamed_job_through_service(self, tiny_dataset):
        """Streamed transfer_mode jobs run through the service too."""
        config = _config(transfer_mode="streamed", block_size=16, stream_window=8)
        service = OcelotService(config)
        handle = service.submit(_spec(tiny_dataset))
        report = handle.result()
        assert report.transfer_mode == "streamed"
        assert report.timings.streaming_s > 0
        phases = [e.phase for e in handle.events() if e.kind == "phase_started"]
        assert "stream" in phases


class TestTenants:
    def test_spec_wins_over_config_defaults(self, tiny_dataset):
        service = OcelotService(_config(tenant="physics"))
        inherited = service.submit(_spec(tiny_dataset))
        explicit = service.submit(_spec(tiny_dataset, tenant="chemistry"))
        assert inherited.tenant == "physics"
        assert explicit.tenant == "chemistry"

    def test_empty_tenant_rejected_by_the_config(self):
        with pytest.raises(ConfigurationError, match="tenant"):
            OcelotConfig(tenant="")

    def test_mixed_tenant_batch_reports_match_solo(self, tiny_dataset):
        """The acceptance bar: fair-queue ordering never changes a job's report."""
        solo = OcelotService(_config()).submit(_spec(tiny_dataset)).result()
        service = OcelotService(_config())
        tenants = ["astro", "climate", "astro", "fusion", "climate", "fusion", "astro", "climate"]
        handles = [service.submit(_spec(tiny_dataset, tenant=tenant)) for tenant in tenants]
        service.run_pending()
        for handle in handles:
            assert handle.status is JobStatus.COMPLETED
            assert handle.result().as_dict() == solo.as_dict()

    def test_wfq_interleaves_flooding_tenant(self, tiny_dataset):
        """Six queued jobs of one tenant cannot starve another tenant.

        With fair queueing the singleton tenant's transfer goes out well
        before the flooder's last one, even though it was submitted last.
        """
        service = OcelotService(_config())
        flood = [
            service.submit(_spec(tiny_dataset, tenant="flooder"))
            for _ in range(6)
        ]
        single = service.submit(_spec(tiny_dataset, tenant="single"))
        service.run_pending()
        flood_finishes = sorted(h.finished_at for h in flood)
        assert single.finished_at < flood_finishes[-1]

    def test_jobs_of_one_tenant_finish_in_submission_order(self, tiny_dataset):
        service = OcelotService(_config())
        handles = [
            service.submit(_spec(tiny_dataset, tenant="acme")) for _ in range(4)
        ]
        service.run_pending()
        finishes = [h.finished_at for h in handles]
        assert finishes == sorted(finishes)

    def test_cancel_of_a_pending_job_lets_the_rest_run(self, tiny_dataset):
        service = OcelotService(_config())
        first, second, third = (
            service.submit(_spec(tiny_dataset, tenant="acme")) for _ in range(3)
        )
        assert second.status is JobStatus.PENDING
        assert second.cancel() is True
        service.run_pending()
        assert first.status is JobStatus.COMPLETED
        assert third.status is JobStatus.COMPLETED
        assert second.status is JobStatus.CANCELLED
        assert [e.kind for e in second.events()] == ["submitted", "cancelled"]
        assert second.timeline() == []

    def test_invalid_spec_rejected_before_anything_is_staged(self, tiny_dataset):
        service = OcelotService(_config())
        with pytest.raises(ConfigurationError, match="compressor"):
            service.submit(_spec(tiny_dataset, overrides={"compressor": "no-such-codec"}))
        assert service.jobs() == []
        assert service.testbed.endpoint("anvil").filesystem.file_count() == 0

    def test_idle_and_live_jobs_track_jobs_in_flight(self, tiny_dataset):
        service = OcelotService(_config())
        scheduler = service.scheduler
        assert scheduler.idle and list(scheduler.live_jobs()) == []
        handles = [
            service.submit(_spec(tiny_dataset, tenant=tenant))
            for tenant in ("a", "b", "a")
        ]
        assert not scheduler.idle
        assert [job.job_id for job in scheduler.live_jobs()] == [
            h.job_id for h in handles]
        assert scheduler.in_flight() == {"a": 2, "b": 1}
        service.run_pending()
        assert scheduler.idle and list(scheduler.live_jobs()) == []
        assert scheduler.in_flight() == {}
        assert len(scheduler.jobs()) == 3  # finished jobs stay retained

    def test_tenants_get_equal_shares_of_the_link(self, tiny_dataset):
        """Two tenants with the same backlog alternate on the WAN link:
        neither takes its second transfer before the other's first."""
        service = OcelotService(_config())
        handles = {
            tenant: [service.submit(_spec(tiny_dataset, tenant=tenant))
                     for _ in range(2)]
            for tenant in ("a", "b")
        }
        service.run_pending()

        def transfer_starts(tenant):
            return [next(s.start_s for s in h.timeline() if s.name == "transfer")
                    for h in handles[tenant]]

        a_starts, b_starts = transfer_starts("a"), transfer_starts("b")
        assert max(a_starts[0], b_starts[0]) < min(a_starts[1], b_starts[1])

    def test_job_ids_number_from_job_0001(self, tiny_dataset):
        service = OcelotService(_config())
        ids = [service.submit(_spec(tiny_dataset)).job_id for _ in range(3)]
        assert ids == ["job-0001", "job-0002", "job-0003"]


class TestRecovery:
    def _store_path(self, tmp_path):
        return str(tmp_path / "jobs.wal")

    def test_recover_finishes_persisted_batch(self, tiny_dataset, tmp_path):
        path = self._store_path(tmp_path)
        crashed = OcelotService(_config(), store=path)
        # The first job lands before the other two are submitted; then
        # "crash" (abandon the service) with those two still queued.
        first = crashed.submit(_spec(tiny_dataset, tenant="acme"))
        first.wait()
        assert first.status is JobStatus.COMPLETED
        second = crashed.submit(_spec(tiny_dataset, tenant="acme"))
        crashed.submit(_spec(tiny_dataset, tenant="other"))
        assert not second.status.is_terminal

        service = OcelotService(_config(), store=path)
        result = service.recover()
        # The finished job keeps its persisted record and is not re-queued.
        assert [state["job_id"] for state in result.finished] == ["job-0001"]
        assert result.finished[0]["status"] == "completed"
        assert result.finished[0]["report"]["compression_ratio"] > 1.0
        assert result.unrecoverable == []
        resumed_ids = sorted(h.job_id for h in result.resumed)
        assert resumed_ids == ["job-0002", "job-0003"]
        # The tenant survives the round trip.
        resumed = {h.job_id: h for h in result.resumed}
        assert resumed["job-0002"].tenant == "acme"
        assert resumed["job-0003"].tenant == "other"
        service.run_pending()
        assert all(h.status is JobStatus.COMPLETED for h in result.resumed)
        # The rebuilt dataset is byte-identical, so so are the reports.
        solo = OcelotService(_config()).submit(_spec(tiny_dataset)).result()
        assert resumed["job-0003"].result().as_dict() == solo.as_dict()

    def test_no_duplicated_billing_across_crash(self, tiny_dataset, tmp_path):
        path = self._store_path(tmp_path)
        crashed = OcelotService(_config(), store=path)
        first = crashed.submit(_spec(tiny_dataset))
        crashed.submit(_spec(tiny_dataset))
        first.wait()

        service = OcelotService(_config(), store=path)
        service.recover()
        service.run_pending()
        terminal_counts = {}
        for record in JobStore(path).load():
            if record["kind"] == "terminal":
                terminal_counts[record["job_id"]] = (
                    terminal_counts.get(record["job_id"], 0) + 1
                )
        # Exactly one terminal (billing) record per job, ever.
        assert terminal_counts == {"job-0001": 1, "job-0002": 1}
        # The pre-crash job never re-entered the new service's queue.
        assert sorted(h.job_id for h in service.jobs()) == ["job-0002"]

    def test_recovered_service_continues_job_numbering(self, tiny_dataset, tmp_path):
        path = self._store_path(tmp_path)
        crashed = OcelotService(_config(), store=path)
        crashed.submit(_spec(tiny_dataset))
        crashed.submit(_spec(tiny_dataset))

        service = OcelotService(_config(), store=path)
        service.recover()
        fresh = service.submit(_spec(tiny_dataset))
        assert fresh.job_id == "job-0003"

    def test_a_service_on_a_used_log_numbers_past_it_without_recover(
        self, tiny_dataset, tmp_path
    ):
        """Numbering is continued in the constructor (``ocelot submit``
        opens the same log batch after batch and never recovers)."""
        path = self._store_path(tmp_path)
        OcelotService(_config(), store=path).submit(_spec(tiny_dataset))
        OcelotService(_config(), store=path).submit(_spec(tiny_dataset))
        again = OcelotService(_config(), store=path)
        assert again.submit(_spec(tiny_dataset)).job_id == "job-0003"
        assert [r["job_id"] for r in JobStore(path).load()] == [
            "job-0001", "job-0002", "job-0003",
        ]

    def test_recover_reads_cli_written_and_plain_logs_alike(self, tiny_dataset, tmp_path):
        """``ocelot submit`` appends ``record`` / ``batch`` lines after the
        write-ahead ones; recovery must not care whether they are there."""
        plain = self._store_path(tmp_path)
        crashed = OcelotService(_config(), store=plain)
        done = crashed.submit(_spec(tiny_dataset))
        crashed.submit(_spec(tiny_dataset))
        done.wait()
        with_records = str(tmp_path / "cli.wal")
        with open(plain, encoding="utf-8") as src, open(with_records, "w", encoding="utf-8") as dst:
            dst.write(src.read())
        cli_log = JobStore(with_records)
        cli_log.append({"kind": "record", **done.as_dict()})
        cli_log.append({"kind": "batch", "combined_makespan_s": crashed.makespan_s})

        outcomes = []
        for path in (plain, with_records):
            service = OcelotService(_config(), store=path)
            result = service.recover()
            assert [state["job_id"] for state in result.finished] == ["job-0001"]
            assert [handle.job_id for handle in result.resumed] == ["job-0002"]
            assert result.unrecoverable == []
            service.run_pending()
            assert sorted(h.job_id for h in service.jobs()) == ["job-0002"]  # not re-run
            outcomes.append((result.finished[0]["report"], result.resumed[0].status))
        assert outcomes[0] == outcomes[1]
        assert "events" in JobStore(with_records).replay()["job-0001"]

    def test_a_log_line_naming_a_priority_class_still_recovers(self, tmp_path):
        """Logs written while jobs had a priority class resume in the one class."""
        path = self._store_path(tmp_path)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(PRIORITY_ERA_SUBMITTED_LINE + "\n")
        service = OcelotService(_config(), store=path)
        result = service.recover()
        assert [h.job_id for h in result.resumed] == ["job-0001"]
        service.run_pending()
        (handle,) = result.resumed
        assert handle.status is JobStatus.COMPLETED and handle.tenant == "acme"
        # The report that build wrote for this job, to the last digit.
        report = handle.result()
        assert (report.compression_ratio, report.total_s) == (
            2.042383445524807, 0.8343898987379808
        )

    def test_unrecoverable_without_recipe(self, tiny_dataset, tmp_path):
        from repro.datasets.base import ScientificDataset

        path = self._store_path(tmp_path)
        adhoc = ScientificDataset("adhoc", fields=tiny_dataset.fields)
        assert adhoc.recipe is None
        crashed = OcelotService(_config(), store=path)
        crashed.submit(_spec(adhoc))

        service = OcelotService(_config(), store=path)
        result = service.recover()
        assert result.resumed == [] and result.finished == []
        assert [state["job_id"] for state in result.unrecoverable] == ["job-0001"]

    def test_recover_requires_store_and_idle_queue(self, tiny_dataset, tmp_path):
        with pytest.raises(OrchestrationError, match="job store"):
            OcelotService(_config()).recover()
        path = self._store_path(tmp_path)
        service = OcelotService(_config(), store=path)
        service.submit(_spec(tiny_dataset))
        with pytest.raises(OrchestrationError, match="in flight"):
            service.recover()

    def test_wal_survives_torn_tail(self, tiny_dataset, tmp_path):
        path = self._store_path(tmp_path)
        crashed = OcelotService(_config(), store=path)
        crashed.submit(_spec(tiny_dataset))
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"kind": "terminal", "job_id": "job-0001", "stat')
        service = OcelotService(_config(), store=path)
        result = service.recover()
        # The torn terminal record is ignored: the job is still pending.
        assert [h.job_id for h in result.resumed] == ["job-0001"]
        service.run_pending()
        assert result.resumed[0].status is JobStatus.COMPLETED

    def test_submitted_record_carries_resolved_identity(self, tiny_dataset, tmp_path):
        path = self._store_path(tmp_path)
        service = OcelotService(
            _config(tenant="physics"), store=path
        )
        service.submit(_spec(tiny_dataset))
        record = JobStore(path).load()[0]
        assert record["kind"] == "submitted"
        assert record["spec"]["tenant"] == "physics"
        assert "priority" not in record["spec"]
        assert record["dataset_recipe"] == tiny_dataset.recipe
        assert json.dumps(record)  # JSON-serialisable end to end
