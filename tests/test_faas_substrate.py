"""Tests for the simulated FuncX-style FaaS substrate."""

from __future__ import annotations

import os
import subprocess
import sys
import time

import pytest

from repro.core import Ocelot, OcelotConfig
from repro.datasets import generate_application
from repro.errors import FaaSError, FunctionNotRegisteredError, SchedulingError
from repro.faas import (
    BatchScheduler,
    ContainerPool,
    FaaSEndpoint,
    FunctionRegistry,
    FuncXService,
    NodeWaitModel,
    build_faas_service,
)
from repro.service import TransferSpec


def _double(x):
    """Double the input (test function)."""
    return 2 * x


class TestFunctionRegistry:
    def test_register_and_get(self):
        registry = FunctionRegistry()
        fid = registry.register(_double)
        spec = registry.get(fid)
        assert spec.callable(21) == 42
        assert spec.name == "_double"
        assert "Double" in spec.description

    def test_registration_is_idempotent(self):
        registry = FunctionRegistry()
        assert registry.register(_double) == registry.register(_double)
        assert len(registry) == 1

    def test_different_functions_get_different_ids(self):
        registry = FunctionRegistry()
        a = registry.register(_double)
        b = registry.register(lambda x: x + 1, name="increment")
        assert a != b
        assert b in registry

    def test_unknown_id_raises(self):
        with pytest.raises(FunctionNotRegisteredError):
            FunctionRegistry().get("fn-doesnotexist")


class TestContainerPool:
    def test_first_call_is_cold(self):
        pool = ContainerPool(cold_start_s=5.0, warm_start_s=0.1)
        assert pool.startup_cost("default") == 5.0
        assert pool.startup_cost("default") == 0.1
        assert pool.is_warm("default")

    def test_eviction_when_pool_full(self):
        pool = ContainerPool(max_warm=2)
        pool.startup_cost("a")
        pool.startup_cost("b")
        pool.startup_cost("b")
        pool.startup_cost("c")  # evicts the least-used warm container ("a")
        assert pool.is_warm("c")
        assert not pool.is_warm("a")

    def test_invalidate(self):
        pool = ContainerPool()
        pool.startup_cost("x")
        pool.invalidate("x")
        assert pool.startup_cost("x") == pool.cold_start_s


class TestNodeWaitModel:
    def test_immediate_is_zero(self, rng):
        assert NodeWaitModel(kind="immediate").sample(rng) == 0.0

    def test_constant(self, rng):
        assert NodeWaitModel(kind="constant", scale_s=42.0).sample(rng) == 42.0

    def test_uniform_in_range(self, rng):
        model = NodeWaitModel(kind="uniform", scale_s=30.0)
        samples = [model.sample(rng) for _ in range(200)]
        assert all(0 <= s <= 30 for s in samples)

    def test_exponential_positive(self, rng):
        model = NodeWaitModel(kind="exponential", scale_s=10.0)
        assert all(model.sample(rng) >= 0 for _ in range(50))

    def test_bimodal_has_heavy_tail(self, rng):
        model = NodeWaitModel(kind="bimodal", scale_s=30.0, heavy_tail_p=0.3,
                              heavy_tail_scale_s=600.0)
        samples = [model.sample(rng) for _ in range(500)]
        assert max(samples) > 100.0
        assert min(samples) < 30.0

    def test_unknown_kind_raises(self, rng):
        with pytest.raises(SchedulingError):
            NodeWaitModel(kind="weibull").sample(rng)


class TestBatchScheduler:
    def test_request_and_release(self):
        """A request returns its wait and holds nothing, so there is
        nothing to release: the whole partition is free for the next one."""
        scheduler = BatchScheduler(total_nodes=8)
        assert scheduler.queue_wait(8) == 0.0
        assert scheduler.queue_wait(8) == 0.0

    @pytest.mark.parametrize("kind", ["immediate", "constant", "uniform", "exponential", "bimodal"])
    def test_a_seed_fixes_every_wait(self, kind):
        """Whatever the request sizes, a site's seed fixes its sequence of waits."""
        model = NodeWaitModel(kind=kind, scale_s=30.0)

        def waits():
            scheduler = BatchScheduler(total_nodes=8, wait_model=model, seed=11)
            return [scheduler.queue_wait(nodes) for nodes in (1, 8, 3, 8, 2)]

        first = waits()
        assert first == waits()
        assert all(wait >= 0.0 for wait in first)

    def test_a_refused_request_takes_no_draw(self):
        model = NodeWaitModel(kind="exponential", scale_s=30.0)
        refused = BatchScheduler(total_nodes=4, wait_model=model, seed=5)
        twin = BatchScheduler(total_nodes=4, wait_model=model, seed=5)
        for nodes in (0, 5):
            with pytest.raises(SchedulingError):
                refused.queue_wait(nodes)
        assert refused.queue_wait(2) == twin.queue_wait(2)

    def test_oversized_request_raises(self):
        with pytest.raises(SchedulingError):
            BatchScheduler(total_nodes=4).queue_wait(8)

    def test_zero_nodes_raises(self):
        with pytest.raises(SchedulingError):
            BatchScheduler(total_nodes=4).queue_wait(0)

    def test_immediate_model_has_no_wait(self):
        scheduler = BatchScheduler(total_nodes=8, wait_model=NodeWaitModel(kind="immediate"))
        assert scheduler.queue_wait(2) == 0.0

    def test_a_wait_is_one_draw_whatever_was_requested_before(self):
        """Nothing is held between requests: a full-partition request
        leaves the next one the same single draw from the site's RNG."""
        model = NodeWaitModel(kind="uniform", scale_s=30.0)
        full = BatchScheduler(total_nodes=4, wait_model=model, seed=3)
        small = BatchScheduler(total_nodes=4, wait_model=model, seed=3)
        assert [full.queue_wait(4), full.queue_wait(2)] == [small.queue_wait(1), small.queue_wait(1)]

    def test_invalid_total_nodes(self):
        with pytest.raises(SchedulingError):
            BatchScheduler(total_nodes=0)


class TestFaaSEndpointAndService:
    def _endpoint(self, wait_kind="immediate"):
        return FaaSEndpoint(
            name="anvil",
            scheduler=BatchScheduler(total_nodes=16, wait_model=NodeWaitModel(kind=wait_kind)),
            cores_per_node=128,
        )

    def test_execute_returns_value_and_timing(self):
        endpoint = self._endpoint()
        execution = endpoint.execute(_double, duration_s=1.5, args=(5,), nodes=2)
        assert execution.value == 10
        assert execution.total_s >= execution.execution_s
        assert execution.nodes == 2

    def test_the_charged_execution_is_the_given_duration(self):
        """The caller models the call's execution; the host's wall time is
        never charged, however long the callable really takes."""
        endpoint = self._endpoint()
        assert endpoint.execute(_double, duration_s=120.0, args=(1,)).execution_s == 120.0
        slow = endpoint.execute(time.sleep, duration_s=0.0, args=(0.02,))
        assert slow.execution_s == 0.0

    def test_the_queue_wait_is_the_schedulers_draw(self):
        """Every call asks for the whole partition; none holds it for the next."""
        model = NodeWaitModel(kind="uniform", scale_s=30.0)
        endpoint = FaaSEndpoint(name="cori", scheduler=BatchScheduler(8, model, seed=2))
        twin = BatchScheduler(8, model, seed=2)
        waits = [
            endpoint.execute(_double, duration_s=1.0, args=(i,), nodes=8).queue_wait_s
            for i in range(3)
        ]
        assert waits == [twin.queue_wait(8) for _ in range(3)]

    def test_an_oversized_call_raises_before_running(self):
        ran = []
        with pytest.raises(SchedulingError):
            self._endpoint().execute(ran.append, duration_s=1.0, args=(1,), nodes=17)
        assert ran == []

    def test_invalid_cores(self):
        with pytest.raises(FaaSError):
            FaaSEndpoint(name="x", scheduler=BatchScheduler(4), cores_per_node=0)

    def test_service_run_returns_a_duration_and_leaves_the_clock(self):
        service = FuncXService()
        service.register_endpoint(self._endpoint())
        fid = service.register_function(_double)
        before = service.clock.now
        task = service.run("anvil", fid, duration_s=10.0, args=(3,))
        assert task.result == 6
        assert service.clock.now == before
        assert task.duration_s >= 10.0
        assert task.completed_at == task.submitted_at + task.duration_s

    def test_service_unknown_endpoint_raises(self):
        service = FuncXService()
        fid = service.register_function(_double)
        with pytest.raises(FaaSError):
            service.run("frontier", fid, duration_s=1.0, args=(1,))

    def test_warm_container_is_faster_on_second_call(self):
        service = FuncXService()
        service.register_endpoint(self._endpoint())
        fid = service.register_function(_double)
        first = service.run("anvil", fid, duration_s=1.0, args=(1,))
        second = service.run("anvil", fid, duration_s=1.0, args=(1,))
        assert second.execution.startup_s < first.execution.startup_s

    def test_build_faas_service_defaults(self):
        service = build_faas_service()
        assert set(service.endpoints()) == {"anvil", "bebop", "cori"}
        # Anvil schedules immediately (the paper's observation).
        anvil_wait = service.endpoint("anvil").scheduler.wait_model
        assert anvil_wait.kind == "immediate"
        assert service.endpoint("bebop").scheduler.wait_model.kind == "bimodal"

    def test_sampled_queue_waits_do_not_depend_on_the_hash_salt(self):
        """Two processes sample the same waits (``hash(str)`` is salted per process)."""
        script = (
            "from repro.faas import build_faas_service\n"
            "service = build_faas_service()\n"
            "print([service.endpoint(name).scheduler.queue_wait(1)\n"
            "       for name in ('bebop', 'cori') for _ in range(3)])\n"
        )
        waits = {
            subprocess.run(
                [sys.executable, "-c", script], check=True, capture_output=True, text=True,
                env={**os.environ, "PYTHONHASHSEED": salt},
            ).stdout
            for salt in ("1", "2")
        }
        assert len(waits) == 1


def _noop():
    return None


def test_a_faas_call_waits_the_same_wherever_a_transfer_is_paused():
    """The job scheduler's node pools are the only place a node is busy,
    so a FaaS call's queue wait is its site's sampled wait alone: the
    same before a concurrent anvil->cori job starts, while that job is
    paused after ``stage`` / ``plan`` / ``wait``, and once it finished."""
    dataset = generate_application(
        "miranda", snapshots=1, scale=0.03, seed=4, fields=["density", "pressure", "velocityx"]
    )
    ocelot = Ocelot(OcelotConfig())
    fid = ocelot.faas.register_function(_noop)
    service = ocelot.service
    service.submit(TransferSpec(dataset=dataset, source="anvil", destination="cori"))
    waits = [ocelot.faas.run("anvil", fid, 0.0).execution.queue_wait_s]
    for _ in range(3):
        assert service.scheduler.step()
    waits.append(ocelot.faas.run("anvil", fid, 0.0).execution.queue_wait_s)
    service.run_pending()
    waits.append(ocelot.faas.run("anvil", fid, 0.0).execution.queue_wait_s)
    assert waits[0] == waits[1] == waits[2]
