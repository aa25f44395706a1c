"""Tests for the simulated FuncX sites: wait models, batch schedulers, the site table."""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

from repro.core import Ocelot, OcelotConfig
from repro.datasets import generate_application
from repro.errors import FaaSError, SchedulingError
from repro.faas import BatchScheduler, NodeWaitModel, SiteTable, build_faas_service
from repro.service import TransferSpec
from repro.utils.clock import SimulationClock
from repro.utils.rng import derive_seed


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


class TestSiteTable:
    def test_unknown_site_raises(self):
        with pytest.raises(FaaSError, match="frontier"):
            build_faas_service().scheduler("frontier")

    def test_build_faas_service_defaults(self):
        sites = build_faas_service()
        assert sites.names() == ["anvil", "bebop", "cori"]
        # Anvil schedules immediately (the paper's observation).
        assert sites.scheduler("anvil").wait_model.kind == "immediate"
        assert sites.scheduler("bebop").wait_model.kind == "bimodal"
        assert [sites.scheduler(name).total_nodes for name in sites.names()] == [16, 8, 8]

    def test_sampled_queue_waits_do_not_depend_on_the_hash_salt(self):
        """Two processes sample the same waits (``hash(str)`` is salted per process)."""
        script = (
            "from repro.faas import build_faas_service\n"
            "sites = build_faas_service()\n"
            "print([sites.scheduler(name).queue_wait(1)\n"
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

    def test_unknown_site_error_is_a_faas_error_that_names_the_sites(self):
        with pytest.raises(FaaSError) as caught:
            build_faas_service().scheduler("frontier")
        assert not isinstance(caught.value, SchedulingError)
        assert caught.value.code == "faas_failed"
        assert all(name in str(caught.value) for name in ("anvil", "bebop", "cori"))

    def test_names_are_sorted_whatever_the_order_given(self):
        table = SiteTable({"cori": BatchScheduler(2), "anvil": BatchScheduler(4)})
        assert table.names() == ["anvil", "cori"]

    def test_the_table_keeps_its_own_copy_of_the_sites(self):
        schedulers = {"anvil": BatchScheduler(4)}
        table = SiteTable(schedulers)
        schedulers["bebop"] = BatchScheduler(2)
        del schedulers["anvil"]
        assert table.names() == ["anvil"]
        with pytest.raises(FaaSError):
            table.scheduler("bebop")

    def test_a_site_is_the_same_scheduler_on_every_lookup(self):
        """A lookup returns the site's one scheduler, so its wait stream
        continues from call to call instead of restarting."""
        sites, fresh = build_faas_service(), build_faas_service()
        assert sites.scheduler("bebop") is sites.scheduler("bebop")
        waits = [sites.scheduler("bebop").queue_wait(1) for _ in range(3)]
        assert waits == [fresh.scheduler("bebop").queue_wait(1) for _ in range(3)]
        assert len(set(waits)) == 3

    @pytest.mark.parametrize("site", ["bebop", "cori"])
    def test_the_queue_wait_is_the_schedulers_draw(self, site):
        """A site's waits are those of a scheduler seeded by the site's name."""
        model = NodeWaitModel(kind="bimodal", scale_s=30.0, heavy_tail_p=0.1,
                              heavy_tail_scale_s=600.0)
        twin = BatchScheduler(8, model, seed=derive_seed(0, site))
        scheduler = build_faas_service().scheduler(site)
        assert [scheduler.queue_wait(8) for _ in range(4)] == [twin.queue_wait(8) for _ in range(4)]

    def test_an_oversized_request_raises_before_drawing(self):
        sites, fresh = build_faas_service(), build_faas_service()
        with pytest.raises(SchedulingError):
            sites.scheduler("cori").queue_wait(9)
        assert sites.scheduler("cori").queue_wait(8) == fresh.scheduler("cori").queue_wait(8)

    def test_sites_draw_from_independent_streams(self):
        """Requests at one site leave every other site's waits as they were."""
        busy, quiet = build_faas_service(), build_faas_service()
        for _ in range(5):
            busy.scheduler("bebop").queue_wait(1)
        assert busy.scheduler("cori").queue_wait(1) == quiet.scheduler("cori").queue_wait(1)
        assert busy.scheduler("bebop").queue_wait(1) != quiet.scheduler("bebop").queue_wait(1)

    def test_the_seed_fixes_every_sites_waits(self):
        def waits(seed):
            sites = build_faas_service(seed=seed)
            return [sites.scheduler(name).queue_wait(1) for name in ("bebop", "cori")
                    for _ in range(3)]

        assert waits(0) == waits(0)
        assert waits(0) != waits(1)

    def test_a_wait_model_override_changes_only_its_site(self):
        sites = build_faas_service(wait_models={"anvil": NodeWaitModel(kind="constant",
                                                                       scale_s=5.0)})
        assert sites.scheduler("anvil").queue_wait(1) == 5.0
        assert sites.scheduler("bebop").wait_model == build_faas_service().scheduler(
            "bebop").wait_model

    def test_a_nodes_override_resizes_only_its_partition(self):
        sites = build_faas_service(nodes={"bebop": 2})
        assert [sites.scheduler(name).total_nodes for name in sites.names()] == [16, 2, 8]
        with pytest.raises(SchedulingError):
            sites.scheduler("bebop").queue_wait(3)

    def test_a_site_named_only_in_nodes_is_added_and_waits_immediately(self):
        sites = build_faas_service(nodes={"polaris": 4})
        assert sites.names() == ["anvil", "bebop", "cori", "polaris"]
        assert sites.scheduler("polaris").total_nodes == 4
        assert sites.scheduler("polaris").queue_wait(4) == 0.0

    def test_the_clock_keyword_is_accepted_and_unused(self):
        clock = SimulationClock(start=12.5)
        with_clock, without = build_faas_service(clock=clock), build_faas_service()
        assert [with_clock.scheduler("bebop").queue_wait(1) for _ in range(3)] == [
            without.scheduler("bebop").queue_wait(1) for _ in range(3)
        ]
        assert clock.now == 12.5


def test_a_faas_call_waits_the_same_wherever_a_transfer_is_paused():
    """The job scheduler's node pools are the only place a node is busy,
    so a FaaS call's queue wait is its site's sampled wait alone: the same
    before a concurrent anvil->cori job starts, while that job is paused
    after ``stage`` / ``plan`` / ``wait``, and once it finished."""
    dataset = generate_application(
        "miranda", snapshots=1, scale=0.03, seed=4, fields=["density", "pressure", "velocityx"]
    )
    ocelot = Ocelot(OcelotConfig())
    anvil = ocelot.faas.scheduler("anvil")
    service = ocelot.service
    service.submit(TransferSpec(dataset=dataset, source="anvil", destination="cori"))
    waits = [anvil.queue_wait(1)]
    for _ in range(3):
        assert service.scheduler.step()
    waits.append(anvil.queue_wait(1))
    service.run_pending()
    waits.append(anvil.queue_wait(1))
    assert waits[0] == waits[1] == waits[2]
