"""Tests for the Ocelot core components: config, parallel model, grouping,
sentinel, planner and reporting."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.core import (
    CompressionPlanner,
    FileGrouper,
    OcelotConfig,
    OcelotOrchestrator,
    ParallelCostModel,
    ParallelExecutor,
    PhaseTimings,
    TransferReport,
)
from repro.core.parallel import HelperLane
from repro.core.reporting import QualityTally
from repro.datasets import Field, ScientificDataset
from repro.errors import (
    ConfigurationError, EncodingError, ErrorBoundViolation, GroupingError, OrchestrationError,
)
from repro.faas import NodeWaitModel, build_faas_service


class TestOcelotConfig:
    def test_defaults_are_valid(self):
        config = OcelotConfig()
        assert config.mode == "grouped"
        assert config.resolved_error_bound().value == config.error_bound

    def test_invalid_mode_raises(self):
        with pytest.raises(ConfigurationError):
            OcelotConfig(mode="turbo")

    def test_invalid_error_bound_raises(self):
        with pytest.raises(ConfigurationError):
            OcelotConfig(error_bound=-1.0)

    def test_invalid_nodes_raise(self):
        with pytest.raises(ConfigurationError):
            OcelotConfig(compression_nodes=0)
        with pytest.raises(ConfigurationError):
            OcelotConfig(cores_per_node=0)

    def test_invalid_scales_raise(self):
        with pytest.raises(ConfigurationError):
            OcelotConfig(size_scale=0.0)

    @pytest.mark.parametrize(
        "name", ["assumed_compression_throughput_mbps", "assumed_decompression_throughput_mbps"]
    )
    @pytest.mark.parametrize("value", [None, 0, 0.0, -300.0])
    def test_a_throughput_must_be_a_positive_rate(self, name, value):
        """No throughput means no model, and there is no other source of
        a simulated compute second."""
        with pytest.raises(ConfigurationError):
            OcelotConfig(**{name: value})
        with pytest.raises(ConfigurationError):
            OcelotConfig().with_overrides(**{name: value})

    def test_compute_seconds_are_nominal_bytes_at_the_throughput(self):
        config = OcelotConfig(size_scale=10.0)
        assert (config.assumed_compression_throughput_mbps,
                config.assumed_decompression_throughput_mbps) == (300.0, 500.0)
        assert config.simulated_compute_s(6e8, 300.0) == 2.0
        # ceil(4001 * 0.01) = 41 sampled bytes, x10 size scale, x4 candidates.
        assert config.simulated_planning_s(4001, candidates=4) == 41 * 10.0 * 4 / 300e6

    @pytest.mark.parametrize(
        "name", ["group_target_bytes", "sentinel_wait_threshold_s", "sample_fraction"]
    )
    def test_removed_options_fail_typed(self, name):
        """Grouping is by world size, the sentinel threshold a constant and
        the predictor's sample the extractor's: none is a field any more."""
        with pytest.raises(ConfigurationError, match=name):
            OcelotConfig().with_overrides(**{name: 1})

    def test_error_bound_modes(self):
        assert OcelotConfig(error_bound=0.5, error_bound_mode="abs").resolved_error_bound().mode.value == "abs"
        with pytest.raises(ConfigurationError):
            OcelotConfig(error_bound_mode="weird")


class TestParallelExecutor:
    def _times(self, n=512, seed=0):
        rng = np.random.default_rng(seed)
        return rng.uniform(0.8, 1.2, n).tolist()

    def test_compression_scales_with_nodes_until_saturation(self):
        """Fig. 9 (left): more nodes reduce compression time, then flatten."""
        executor = ParallelExecutor()
        times = self._times(512)
        sizes = [10**6] * 512
        makespans = [
            executor.compression_makespan(times, sizes, nodes=n, cores_per_node=128).makespan_s
            for n in (1, 2, 4, 8)
        ]
        assert makespans[0] > makespans[1] > makespans[2]
        # Beyond saturation (cores >= files), improvement stops.
        saturated = executor.compression_makespan(times, sizes, nodes=16, cores_per_node=128)
        nearly_saturated = executor.compression_makespan(times, sizes, nodes=8, cores_per_node=128)
        assert saturated.makespan_s >= nearly_saturated.makespan_s * 0.5

    def test_decompression_degrades_with_many_nodes(self):
        """Fig. 9 (right): I/O contention makes decompression slower at scale."""
        executor = ParallelExecutor()
        times = self._times(512, seed=1)
        output_sizes = [200 * 10**6] * 512  # full-size reconstructed files
        few = executor.decompression_makespan(times, output_sizes, nodes=1, cores_per_node=128)
        many = executor.decompression_makespan(times, output_sizes, nodes=16, cores_per_node=128)
        assert many.io_s > few.io_s
        assert many.makespan_s > few.makespan_s

    def test_time_scale_applies(self):
        executor = ParallelExecutor()
        base = executor.compression_makespan([1.0] * 8, [1] * 8, nodes=1, cores_per_node=1)
        scaled = executor.compression_makespan([10.0] * 8, [1] * 8, nodes=1, cores_per_node=1)
        assert scaled.makespan_s > base.makespan_s * 5

    def test_empty_batch(self):
        executor = ParallelExecutor()
        estimate = executor.compression_makespan([], [], nodes=2, cores_per_node=8)
        assert estimate.makespan_s >= 0.0
        assert estimate.files == 0

    def test_invalid_nodes_raise(self):
        with pytest.raises(ConfigurationError):
            ParallelExecutor().compression_makespan([1.0], [1], nodes=0, cores_per_node=1)

    def test_write_bandwidth_decreases_with_writers(self):
        model = ParallelCostModel()
        assert model.write_bandwidth(2048) < model.write_bandwidth(64)


class TestHelperLane:
    def test_one_named_daemon_thread_per_process(self):
        lane = ParallelExecutor().lane
        assert lane is ParallelExecutor(block_workers=4).lane
        lane.submit(abs, -1).result()  # the thread starts on first use
        threads = [t for t in threading.enumerate() if t.name == "ocelot-lane"]
        assert len(threads) == 1 and threads[0].daemon

    def test_a_call_reraises_its_exception_type_on_the_caller(self):
        def fail():
            raise EncodingError("corrupt section")

        call = HelperLane("test-lane").submit(fail)
        with pytest.raises(EncodingError, match="corrupt section"):
            call.result()

    def test_gather_runs_still_queued_calls_on_the_caller_before_waiting(self):
        """The lane's first call waits for the last one, which only the
        caller can reach: gather must run it before waiting on the first."""
        lane, started, release = HelperLane("test-lane"), threading.Event(), threading.Event()

        def blocker():
            started.set()
            return release.wait(timeout=10)

        calls = [lane.submit(blocker)]
        started.wait()  # the lane holds the first call
        calls += [lane.submit(lambda i=i: (i, threading.current_thread())) for i in range(3)]
        calls.append(lane.submit(release.set))
        values = HelperLane.gather(calls)
        assert values[0] is True  # released by the caller, not by the timeout
        assert [i for i, _ in values[1:4]] == [0, 1, 2]
        assert {thread for _, thread in values[1:4]} == {threading.current_thread()}

    def test_a_call_under_the_grain_runs_on_the_caller(self):
        lane = HelperLane("test-lane")
        small = lane.submit(threading.current_thread, nbytes=HelperLane.GRAIN_BYTES - 1)
        assert small.result() is threading.current_thread()
        assert lane._thread is None  # nothing was handed over, so no thread started

    def test_gather_raises_the_first_failure_in_order(self):
        def fail(message):
            raise ValueError(message)

        lane = HelperLane("test-lane")
        calls = [lane.submit(abs, -1), lane.submit(fail, "first"), lane.submit(fail, "second")]
        with pytest.raises(ValueError, match="first"):
            HelperLane.gather(calls + ["not a call"])
        assert HelperLane.gather([calls[0], b"bytes"]) == [1, b"bytes"]


class TestFileGrouper:
    def _files(self, count=10, size=100):
        rng = np.random.default_rng(0)
        return [(f"file_{i:03d}.sz", rng.bytes(size)) for i in range(count)]

    def test_pack_unpack_round_trip(self):
        grouper = FileGrouper()
        files = self._files(7)
        group = grouper.pack(files, "g0")
        assert grouper.unpack(group.payload) == files
        assert len(group.members) == 7

    def test_empty_group_raises(self):
        with pytest.raises(GroupingError):
            FileGrouper().pack([], "empty")

    def test_unpack_bad_magic_raises(self):
        with pytest.raises(GroupingError):
            FileGrouper().unpack(b"JUNKJUNKJUNK")

    def test_unpack_truncated_raises(self):
        grouper = FileGrouper()
        group = grouper.pack(self._files(3), "g")
        with pytest.raises(GroupingError):
            grouper.unpack(group.payload[: len(group.payload) - 30])

    def test_group_by_world_size(self):
        grouper = FileGrouper()
        sizes = [(f"f{i}", 10) for i in range(10)]
        groups = grouper.assign_by_world_size(sizes, world_size=4)
        assert [len(g) for g in groups] == [4, 4, 2]

    def test_invalid_strategy_parameters(self):
        grouper = FileGrouper()
        with pytest.raises(GroupingError):
            grouper.assign_by_world_size([("a", 1)], world_size=0)

    def test_build_groups_world_size(self):
        grouper = FileGrouper()
        files = self._files(9)
        groups, plan = grouper.build_groups(files, world_size=4, prefix="cesm")
        assert len(groups) == 3
        assert plan.strategy == "world_size=4"
        restored = [m for g in groups for m in grouper.unpack(g.payload)]
        assert restored == files

    def test_build_groups_reduces_file_count(self):
        grouper = FileGrouper()
        files = self._files(100, size=50)
        groups, _ = grouper.build_groups(files, world_size=25)
        assert len(groups) == 4
        assert sum(g.size_bytes for g in groups) >= sum(len(p) for _, p in files)

    def test_metadata_text_lists_members(self):
        grouper = FileGrouper()
        _, plan = grouper.build_groups(self._files(5), world_size=2, prefix="rtm")
        text = plan.metadata_text()
        assert "strategy" in text
        assert "file_000.sz" in text


class TestSentinel:
    """The wait phase's sentinel, driven through the orchestrator: it prices
    raw prefixes with ``TransferService.estimate`` and ships the one it
    picks with ``TransferService.submit``."""

    GB_SCALE = 4e6  # an 8x8 float32 field (256 bytes) stages as 1.024 GB

    @staticmethod
    def _dataset(files):
        return ScientificDataset("sentinel", [
            Field(name=f"f{i:03d}", data=np.full((8, 8), i, np.float32)) for i in range(files)
        ])

    def _run(self, wait_s, files=100, **overrides):
        """Drive one compressed transfer up to its wait step; also return the
        orchestrator and every task the transfer service submitted."""
        faas = build_faas_service(
            wait_models={"anvil": NodeWaitModel(kind="constant", scale_s=wait_s)}
        )
        settings = dict(mode="compressed", sentinel_enabled=True, size_scale=self.GB_SCALE)
        orch = OcelotOrchestrator(OcelotConfig(**{**settings, **overrides}), faas=faas)
        service, submitted = orch.testbed.service, []
        submit = service.submit

        def spy(request):
            submitted.append(submit(request))
            return submitted[-1]

        service.submit = spy
        phases = orch.iter_phases(self._dataset(files), "anvil", "bebop")
        step = next(step for step in phases if step.name == "wait")
        phases.close()
        return orch, step, submitted

    def test_no_wait_means_no_raw_transfer(self):
        _, step, submitted = self._run(0.0)
        assert step.detail["raw_files"] == 0 and step.detail["raw_transfer_s"] == 0.0
        assert submitted == []

    def test_long_wait_transfers_some_files_raw(self):
        _, step, _ = self._run(60.0)
        assert 0 < step.detail["raw_files"] < 100
        assert step.detail["raw_transfer_s"] <= 60.0 and step.duration_s == 60.0

    def test_infinite_wait_transfers_everything_raw(self):
        """Worst case: nodes never arrive, all data goes uncompressed."""
        _, step, _ = self._run(1e9, files=20)
        assert step.detail["raw_files"] == 20

    def test_longer_wait_sends_more_raw(self):
        short = self._run(30.0)[1].detail["raw_files"]
        long = self._run(90.0)[1].detail["raw_files"]
        assert 0 < short < long

    def test_threshold_suppresses_short_waits(self):
        orch, step, submitted = self._run(3.0, files=1)
        assert step.detail["raw_files"] == 0 and submitted == []
        # The file alone would have fitted the wait: the threshold held it back.
        size = int(256 * self.GB_SCALE)
        assert orch.testbed.service.estimate("anvil", "bebop", [size]).duration_s < 3.0

    def test_raw_prefix_is_priced_and_shipped_by_the_transfer_service(self):
        orch, step, submitted = self._run(60.0)
        raw = step.detail["raw_files"]
        staged = orch.stage(self._dataset(100), "anvil")  # the same files, already there
        paths, sizes = [f.path for f in staged], [f.size_bytes for f in staged]
        service = orch.testbed.service
        [task] = submitted
        assert task.request.paths == paths[:raw]
        assert step.detail["raw_transfer_s"] == task.duration_s == service.estimate(
            "anvil", "bebop", sizes[:raw]
        ).duration_s
        # The prefix is the longest that fits: one more file would not.
        assert service.estimate("anvil", "bebop", sizes[: raw + 1]).duration_s > 60.0
        landed = orch.testbed.endpoint("bebop").filesystem
        assert all(landed.exists(path) for path in paths[:raw])
        assert not any(landed.exists(path) for path in paths[raw:])

    def test_direct_transfer_is_the_service_estimate_of_the_staged_files(self):
        config = OcelotConfig(mode="direct", size_scale=self.GB_SCALE)
        orch = OcelotOrchestrator(config)
        phases = orch.iter_phases(self._dataset(5), "anvil", "cori")
        with pytest.raises(StopIteration) as stop:
            while True:
                next(phases)
        sizes = [int(256 * self.GB_SCALE)] * 5
        estimate = orch.testbed.service.estimate("anvil", "cori", sizes).duration_s
        assert stop.value.value.direct_transfer_s == estimate


class TestPlannerAndReporting:
    def test_the_bound_check_slack_scales_with_the_largest_magnitude(self):
        """Casting back to float32 may round by eps * |x|; the check reads
        that magnitude off the extrema, here the minimum (|-1e6| > 1)."""
        original = np.linspace(-1e6, 1.0, 64, dtype=np.float32)
        within_slack = (original.astype(np.float64) + 0.05).astype(np.float32)
        psnr, max_error = QualityTally.measure(original, within_slack, 1e-3)
        assert 1e-3 < max_error < float(np.finfo(np.float32).eps) * 1e6
        assert psnr > 100
        beyond = (original.astype(np.float64) + 0.5).astype(np.float32)
        with pytest.raises(ErrorBoundViolation):
            QualityTally.measure(original, beyond, 1e-3)

    def test_fixed_plan_without_predictor(self):
        planner = CompressionPlanner(OcelotConfig(compressor="sz2", error_bound=1e-4))
        plan = planner.plan()
        assert plan.compressor == "sz2"
        assert plan.used_predictor is False

    def test_prediction_requested_without_predictor_raises(self):
        planner = CompressionPlanner(OcelotConfig(use_prediction=True))
        with pytest.raises(OrchestrationError):
            planner.plan()

    def test_predictive_plan_selects_candidate(self, fitted_predictor, cesm_field):
        config = OcelotConfig(use_prediction=True, compressor="sz3-fast",
                              candidate_error_bounds=(1e-4, 1e-3, 1e-2), min_psnr_db=0.0)
        planner = CompressionPlanner(config, predictor=fitted_predictor)
        plan = planner.plan(representative=cesm_field)
        assert plan.used_predictor is True
        assert plan.predicted is not None
        assert plan.error_bound.mode.value == "rel"
        assert 0 < plan.error_bound.value <= 1.0

    def test_phase_timings_total(self):
        timings = PhaseTimings(node_wait_s=10.0, raw_transfer_s=8.0, compression_s=5.0,
                               transfer_s=20.0, decompression_s=2.0)
        # Waiting overlaps raw transfer; the rest is sequential.
        assert timings.total_s == pytest.approx(10.0 + 5.0 + 20.0 + 2.0)
        assert timings.as_dict()["total_s"] == timings.total_s

    def test_transfer_report_gain(self):
        report = TransferReport(
            dataset="cesm", mode="grouped", source="anvil", destination="cori",
            file_count=10, total_bytes=1000, transferred_files=2, transferred_bytes=250,
            compression_ratio=4.0, timings=PhaseTimings(transfer_s=10.0, compression_s=5.0),
            direct_transfer_s=60.0,
        )
        assert report.total_s == pytest.approx(15.0)
        assert report.gain_vs_direct == pytest.approx(0.75)
        assert "cesm" in report.summary()
        assert report.as_dict()["gain_vs_direct"] == pytest.approx(0.75)

    def test_transfer_report_without_baseline(self):
        report = TransferReport(
            dataset="x", mode="direct", source="a", destination="b",
            file_count=1, total_bytes=10, transferred_files=1, transferred_bytes=10,
            compression_ratio=1.0, timings=PhaseTimings(transfer_s=1.0),
        )
        assert report.gain_vs_direct is None
