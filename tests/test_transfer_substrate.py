"""Tests for the simulated Globus transfer substrate."""

from __future__ import annotations

import pytest

from repro.errors import (
    ConfigurationError,
    EndpointNotFoundError,
    FileNotFoundOnEndpointError,
    TransferError,
)
from repro.transfer import (
    GlobusEndpoint,
    GridFTPEngine,
    GridFTPSettings,
    NetworkTopology,
    SimulatedFileSystem,
    TransferRequest,
    WANLink,
)
from repro.transfer.gridftp import lpt_makespan
from repro.utils.sizes import GB, MB


class TestSimulatedFileSystem:
    def test_write_and_read_payload(self):
        fs = SimulatedFileSystem()
        fs.write("/a/b.dat", data=b"hello")
        assert fs.read("/a/b.dat") == b"hello"
        assert fs.stat("/a/b.dat").size_bytes == 5

    def test_size_only_files(self):
        fs = SimulatedFileSystem()
        fs.write("/big.bin", size_bytes=10**12)
        assert fs.stat("/big.bin").size_bytes == 10**12
        with pytest.raises(TransferError):
            fs.read("/big.bin")

    def test_declared_size_overrides_payload_length(self):
        fs = SimulatedFileSystem()
        fs.write("/scaled.bin", data=b"abc", size_bytes=1000)
        entry = fs.stat("/scaled.bin")
        assert entry.size_bytes == 1000
        assert entry.data == b"abc"

    def test_path_normalisation(self):
        fs = SimulatedFileSystem()
        fs.write("a//b///c.dat", data=b"x")
        assert fs.exists("/a/b/c.dat")

    def test_missing_file_raises(self):
        fs = SimulatedFileSystem()
        with pytest.raises(FileNotFoundOnEndpointError):
            fs.stat("/nope")

    def test_list_prefix(self):
        fs = SimulatedFileSystem()
        fs.write("/data/a.dat", data=b"1")
        fs.write("/data/b.dat", data=b"2")
        fs.write("/other/c.dat", data=b"3")
        assert len(fs.list("/data")) == 2
        assert fs.file_count() == 3
        assert fs.total_bytes("/data") == 2

    def test_remove_prefix(self):
        fs = SimulatedFileSystem()
        fs.write("/data/a.dat", data=b"1")
        fs.write("/data/b.dat", data=b"2")
        assert fs.remove_prefix("/data") == 2
        assert not fs.exists("/data/a.dat")

    def test_copy_from_other_filesystem(self):
        src = SimulatedFileSystem()
        dst = SimulatedFileSystem()
        src.write("/x/y.dat", data=b"payload")
        dst.copy_from(src, ["/x/y.dat"])
        assert dst.read("/x/y.dat") == b"payload"

    def test_requires_data_or_size(self):
        with pytest.raises(TransferError):
            SimulatedFileSystem().write("/empty")


class TestEndpoint:
    def test_invalid_configuration(self):
        with pytest.raises(ConfigurationError):
            GlobusEndpoint(name="")
        with pytest.raises(ConfigurationError):
            GlobusEndpoint(name="x", dtn_count=0)


class TestNetwork:
    def test_link_lookup_and_reverse(self):
        topo = NetworkTopology()
        topo.add_link(WANLink(source="a", destination="b", bandwidth_bps=1e9))
        assert topo.link("a", "b").bandwidth_bps == 1e9
        assert topo.link("b", "a").bandwidth_bps == 1e9

    def test_missing_link_raises_without_default(self):
        with pytest.raises(TransferError):
            NetworkTopology().link("a", "b")

    def test_invalid_link_parameters(self):
        with pytest.raises(ConfigurationError):
            WANLink(source="a", destination="b", bandwidth_bps=0)

    def test_stream_bandwidth_scales_with_parallelism(self):
        link = WANLink(source="a", destination="b", bandwidth_bps=10e9,
                       per_stream_bandwidth_bps=1e9)
        assert link.stream_bandwidth(1) == 1e9
        assert link.stream_bandwidth(4) == 4e9
        assert link.stream_bandwidth(100) == 10e9  # capped at link rate


class TestLptMakespan:
    """Longest job first, each onto the earliest-free worker."""

    def test_no_jobs_take_no_time(self):
        assert lpt_makespan([], 4) == 0.0

    def test_one_worker_runs_jobs_back_to_back(self):
        assert lpt_makespan([1.0, 2.0, 3.5], 1) == 6.5

    def test_spare_workers_leave_the_longest_job(self):
        assert lpt_makespan([1.0, 7.0, 3.0], 3) == 7.0
        assert lpt_makespan([1.0, 7.0, 3.0], 10) == 7.0

    def test_greedy_schedule_not_the_optimum(self):
        """{3, 3} and {2, 2, 2} take 6; LPT pairs the threes and ends at 7."""
        assert lpt_makespan([2.0, 3.0, 2.0, 3.0, 2.0], 2) == 7.0

    def test_non_positive_workers_act_as_one(self):
        assert lpt_makespan([1.0, 2.0], 0) == 3.0

    def test_bounds_and_order_independence(self):
        times = [((i * 37) % 11 + 1) * 0.5 for i in range(40)]
        for workers in (2, 3, 8):
            makespan = lpt_makespan(times, workers)
            assert makespan >= max(times)
            assert makespan >= sum(times) / workers
            # Graham's bound for any list schedule.
            assert makespan <= sum(times) / workers + (1 - 1 / workers) * max(times)
            assert lpt_makespan(list(reversed(times)), workers) == makespan


class TestGridFTPEngine:
    def _link(self, **kwargs):
        defaults = dict(source="bebop", destination="cori", bandwidth_bps=1.2e9,
                        rtt_s=0.05, per_file_overhead_s=0.2,
                        per_stream_bandwidth_bps=0.35e9)
        defaults.update(kwargs)
        return WANLink(**defaults)

    def test_empty_batch(self):
        estimate = GridFTPEngine().estimate([], self._link())
        assert estimate.duration_s == 0.0

    def test_more_files_same_volume_is_slower(self):
        """The Table II pattern: many small files transfer slower."""
        engine = GridFTPEngine()
        link = self._link()
        total = int(30 * GB)
        small = engine.estimate([int(1 * MB)] * (total // int(1 * MB)), link)
        large = engine.estimate([int(100 * MB)] * (total // int(100 * MB)), link)
        assert small.duration_s > large.duration_s
        assert small.effective_speed_bps < large.effective_speed_bps

    def test_speed_saturates_for_large_files(self):
        engine = GridFTPEngine()
        link = self._link()
        total = int(30 * GB)
        speeds = [engine.estimate([size] * (total // size), link).effective_speed_bps
                  for size in (int(100 * MB), int(1000 * MB))]
        assert abs(speeds[0] - speeds[1]) / speeds[1] < 0.25

    def test_concurrency_improves_many_file_transfers(self):
        link = self._link()
        sizes = [int(10 * MB)] * 400
        slow = GridFTPEngine(GridFTPSettings(concurrency=1)).estimate(sizes, link)
        fast = GridFTPEngine(GridFTPSettings(concurrency=8)).estimate(sizes, link)
        assert fast.duration_s < slow.duration_s

    def test_few_files_cannot_use_all_channels(self):
        """The Miranda effect: 8 groups cannot saturate high concurrency."""
        link = self._link(bandwidth_bps=3.9e9, per_stream_bandwidth_bps=0.5e9)
        engine = GridFTPEngine(GridFTPSettings(concurrency=8, parallelism=1))
        few = engine.estimate([int(4 * GB)] * 2, link)
        many = engine.estimate([int(0.5 * GB)] * 16, link)
        assert many.effective_speed_bps > few.effective_speed_bps

    def test_pipelining_reduces_overhead(self):
        link = self._link()
        sizes = [int(1 * MB)] * 2000
        no_pipe = GridFTPEngine(GridFTPSettings(pipelining=1)).estimate(sizes, link)
        pipe = GridFTPEngine(GridFTPSettings(pipelining=20)).estimate(sizes, link)
        assert pipe.duration_s < no_pipe.duration_s

    def test_storage_bandwidth_caps_throughput(self):
        link = self._link(bandwidth_bps=100e9)
        sizes = [int(1 * GB)] * 16
        capped = GridFTPEngine().estimate(sizes, link, storage_write_bps=1e9)
        uncapped = GridFTPEngine().estimate(sizes, link)
        assert capped.duration_s > uncapped.duration_s

    def test_estimate_is_the_lpt_schedule_of_file_costs(self):
        engine = GridFTPEngine()
        link = self._link()
        sizes = [int(s * MB) for s in (700, 30, 250, 1, 90, 400, 5, 60, 180, 12, 3)]
        channels = min(engine.settings.concurrency, len(sizes))
        bandwidth = engine.channel_bandwidth_bps(link, channels)
        overhead = engine.per_chunk_overhead_s(link)
        expected = lpt_makespan([s / bandwidth + overhead for s in sizes], channels)
        estimate = engine.estimate(sizes, link)
        assert estimate.duration_s == expected + 3.0 * link.rtt_s
        assert estimate.per_file_overhead_s == overhead

    def test_channel_bandwidth_is_the_stream_cap_or_a_fair_share(self):
        engine = GridFTPEngine(GridFTPSettings(parallelism=2))
        link = self._link()
        assert engine.channel_bandwidth_bps(link, 1) == 0.7e9
        assert engine.channel_bandwidth_bps(link, 8) == 1.2e9 / 8
        assert engine.channel_bandwidth_bps(link, 8, storage_read_bps=0.8e9) == 0.8e9 / 8
        assert engine.channel_bandwidth_bps(link, 0) == 0.7e9

    def test_per_chunk_overhead_follows_pipelining(self):
        link = self._link()
        one = GridFTPEngine(GridFTPSettings(pipelining=1)).per_chunk_overhead_s(link)
        deep = GridFTPEngine(GridFTPSettings(pipelining=20)).per_chunk_overhead_s(link)
        assert one == 0.2 + 0.05
        assert deep == 0.2 / 8 + 0.05 / 20

    def test_invalid_settings(self):
        with pytest.raises(ConfigurationError):
            GridFTPSettings(concurrency=0)
        with pytest.raises(ConfigurationError):
            GridFTPSettings(parallelism=0)


class TestTransferService:
    def test_submit_moves_files(self, testbed):
        anvil = testbed.endpoint("anvil")
        cori = testbed.endpoint("cori")
        anvil.filesystem.write("/data/x.bin", data=b"abc" * 100)
        task = testbed.service.submit(
            TransferRequest(source_endpoint="anvil", destination_endpoint="cori",
                            paths=["/data/x.bin"])
        )
        assert cori.filesystem.exists("/data/x.bin")
        assert task.duration_s > 0
        assert task.bytes_transferred == 300

    def test_transfer_is_timed_by_its_estimate_and_leaves_the_clock(self, testbed):
        """The service returns a duration; only the job scheduler moves time."""
        anvil = testbed.endpoint("anvil")
        anvil.filesystem.write("/data/big.bin", size_bytes=int(10 * GB))
        testbed.clock.advance(7.0)
        task = testbed.service.submit(
            TransferRequest("anvil", "cori", ["/data/big.bin"])
        )
        assert testbed.clock.now == 7.0
        assert task.started_at == 7.0
        assert task.duration_s == task.estimate.duration_s > 0

    def test_a_request_without_paths_raises(self, testbed):
        with pytest.raises(TransferError):
            testbed.service.submit(TransferRequest("anvil", "cori", []))

    def test_missing_source_file_fails_task(self, testbed):
        """A transfer returns its task or raises, and a raise moves nothing."""
        testbed.endpoint("anvil").filesystem.write("/present.bin", size_bytes=100)
        with pytest.raises(TransferError):
            testbed.service.submit(
                TransferRequest("anvil", "cori", ["/present.bin", "/missing.bin"])
            )
        assert not testbed.endpoint("cori").filesystem.exists("/present.bin")

    def test_unknown_endpoint_raises(self, testbed):
        with pytest.raises(EndpointNotFoundError):
            testbed.service.endpoint("summit")


class TestTestbed:
    def test_three_sites_registered(self, testbed):
        assert testbed.service.endpoints() == ["anvil", "bebop", "cori"]

    def test_route_asymmetry_matches_paper(self, testbed):
        """Anvil->Cori is the fast route; Anvil->Bebop the slow one (Table VIII)."""
        fast = testbed.service.topology.link("anvil", "cori").bandwidth_bps
        slow = testbed.service.topology.link("anvil", "bebop").bandwidth_bps
        assert fast > 3 * slow

    def test_table2_calibration(self, testbed):
        """300 GB as 1 MB files must be several times slower than as 100 MB files."""
        link = testbed.service.topology.link("bebop", "cori")
        engine = GridFTPEngine(testbed.service.default_settings)
        small = engine.estimate([int(1 * MB)] * 300_000, link)
        large = engine.estimate([int(100 * MB)] * 3_000, link)
        assert small.duration_s / large.duration_s > 3.0
        # Effective speeds should be in the few-hundred MB/s to ~GB/s regime.
        assert 100 < small.effective_speed_mbps < 500
        assert 800 < large.effective_speed_mbps < 1600

    def test_reset_clock(self, testbed):
        testbed.clock.advance(100.0)
        testbed.reset_clock()
        assert testbed.clock.now == 0.0
