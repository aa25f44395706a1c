"""A fault or a cancel at any phase leaves nothing held and nobody hurt.

``OcelotOrchestrator.iter_phases`` is one loop over ``PHASES``, so one
seam covers every phase of every mode: replace a phase (here, never in
``src/``) with one that raises for a single job, and that job must end
``FAILED`` with one ``failed`` event, and a neighbour submitted
alongside must finish with the report it produces on its own.  The job
scheduler's pools are the only place a node or link is occupied, so a
job submitted after a failure or a cancel must run as if alone: its
report ``==`` its solo run's, and no phase of it queued.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest
from test_service_api import _config, _spec

from repro.compression import CompressedBlob
from repro.compression.predictors import LorenzoPredictor
from repro.compression.sz.pipeline import PredictionPipelineCompressor
from repro.core import OcelotOrchestrator, phases
from repro.core.parallel import HelperLane
from repro.core.phases import MODE_PHASES, PHASES, TransferRun
from repro.datasets import generate_application
from repro.errors import EncodingError, ErrorBoundViolation
from repro.service import JobStatus, OcelotService

#: Per-job overrides of the runs whose every phase is faulted / cancelled.
RUNS = {
    "compressed": {"mode": "compressed"},
    "grouped": {"mode": "grouped"},
    "streamed": {"mode": "compressed", "transfer_mode": "streamed", "block_size": 8},
}
CASES = [(run, phase) for run, overrides in RUNS.items() for phase in MODE_PHASES[overrides["mode"]]]


@pytest.fixture(scope="module")
def dataset():
    return generate_application(
        "miranda", snapshots=1, scale=0.03, seed=4, fields=["density", "pressure", "velocityx"]
    )


def _service() -> OcelotService:
    return OcelotService(_config())


@pytest.fixture(scope="module")
def solo_report(dataset):
    return _service().submit(_spec(dataset)).result().as_dict()


def _assert_a_later_job_runs_alone(service, dataset, solo_report):
    """Nothing the failed or cancelled job did is still occupied."""
    later = service.submit(_spec(dataset))
    service.run_pending()
    assert later.result().as_dict() == solo_report
    finished = [event for event in later.events() if event.kind == "phase_finished"]
    assert finished and not [event for event in finished if "queued_s" in event.detail]


@pytest.mark.parametrize("run, phase", CASES)
def test_a_raising_phase_fails_one_job_and_frees_its_nodes(
    monkeypatch, dataset, solo_report, run, phase
):
    real = PHASES[phase]

    def faulty(orchestrator, record):
        if orchestrator.config.tenant == "victim":
            raise RuntimeError(f"injected fault in {phase}")
        return real(orchestrator, record)

    monkeypatch.setitem(PHASES, phase, faulty)
    service = _service()
    victim = service.submit(_spec(dataset, overrides={"tenant": "victim", **RUNS[run]}))
    neighbour = service.submit(_spec(dataset))
    service.run_pending()

    assert victim.status is JobStatus.FAILED
    failed = [event for event in victim.events() if event.kind == "failed"]
    assert [event.detail["error"] for event in failed] == [f"injected fault in {phase}"]
    assert neighbour.status is JobStatus.COMPLETED
    assert neighbour.result().as_dict() == solo_report
    _assert_a_later_job_runs_alone(service, dataset, solo_report)


@pytest.mark.parametrize("run", sorted(RUNS))
def test_cancel_at_every_phase_boundary_frees_the_nodes(dataset, solo_report, run):
    boundary = 0
    while True:
        boundary += 1
        service = _service()
        handle = service.submit(_spec(dataset, overrides=RUNS[run]))
        for _ in range(boundary):
            assert service.scheduler.step()
        if handle.status.is_terminal:  # stepped past the last boundary
            break
        assert handle.cancel() is True
        assert handle.status is JobStatus.CANCELLED
        _assert_a_later_job_runs_alone(service, dataset, solo_report)
    assert handle.status is JobStatus.COMPLETED
    # stage, plan, wait, then one step per remaining phase that applies.
    assert boundary - 1 == {"compressed": 6, "grouped": 7, "streamed": 4}[run]


# --------------------------------------------------------------------- #
# Every reconstruction is checked against its bound, whichever way the
# bytes travel
# --------------------------------------------------------------------- #
class _BoundBreaker(LorenzoPredictor):
    """Lorenzo on data shifted by three bounds: decodes cleanly, outside the bound."""

    name = "bound-breaker"

    def encode(self, data, error_bound_abs):
        return super().encode(np.asarray(data) + 3.0 * error_bound_abs, error_bound_abs)


@pytest.fixture
def bound_breaker(monkeypatch):
    """``bound-breaker`` in the registry for one test (names are the ML
    model's categorical feature, so the entry must not outlive it)."""
    from repro.compression import registry

    monkeypatch.setitem(registry._PIPELINES, "bound-breaker", registry._Pipeline(_BoundBreaker))


@pytest.mark.parametrize("run", ["compressed", "streamed"])
def test_a_bound_breaking_predictor_fails_bulk_and_streamed_jobs_alike(
    bound_breaker, dataset, solo_report, run
):
    """No setting asks for the check: the job fails on its first file,
    whose reconstruction lies three bounds off."""
    service = _service()
    breaker = service.submit(
        _spec(dataset, overrides={"compressor": "bound-breaker", **RUNS[run]})
    )
    service.run_pending()

    assert breaker.status is JobStatus.FAILED
    with pytest.raises(ErrorBoundViolation) as excinfo:
        breaker.result()
    assert excinfo.value.max_error > 2.0 * excinfo.value.bound
    _assert_a_later_job_runs_alone(service, dataset, solo_report)


@pytest.mark.parametrize("run", ["compressed", "streamed"])
def test_a_reconstruction_outside_the_bound_never_lands(bound_breaker, dataset, run):
    """The check of file k finishes on the helper lane while file k+1
    decodes; file k is written to ``/decompressed/`` only after it passed."""
    overrides = {"compressor": "bound-breaker", **RUNS[run]}
    mode = overrides.pop("mode")
    orchestrator = OcelotOrchestrator(_config(**overrides))
    record = TransferRun(dataset, "anvil", "cori", mode)
    with pytest.raises(ErrorBoundViolation):
        for phase in MODE_PHASES[mode]:
            PHASES[phase](orchestrator, record)
    assert orchestrator.testbed.endpoint("cori").filesystem.paths("/decompressed/") == []


def test_billed_compress_seconds_exclude_the_verify_pass(monkeypatch, dataset):
    """Table VIII's CPTime is the encode, and the compress phase decodes
    nothing: the bound is checked on the one reconstruction the
    destination makes.  A file is billed its
    staged bytes at the compression throughput."""
    decoded = []
    real_decompress = PredictionPipelineCompressor.decompress_blob

    def decompress_blob(self, blob, inflated=None):
        decoded.append(blob)
        return real_decompress(self, blob, inflated)

    monkeypatch.setattr(PredictionPipelineCompressor, "decompress_blob", decompress_blob)
    orchestrator = OcelotOrchestrator(_config())
    run = TransferRun(dataset, "anvil", "cori", "compressed")
    for phase in ("stage", "plan", "wait", "compress"):
        PHASES[phase](orchestrator, run)
    assert decoded == []
    sizes = [f.size_bytes for f in run.staged]
    assert run.outcome.per_file_times_s == [size / 300e6 for size in sizes]
    for phase in ("group", "transfer", "decompress"):
        PHASES[phase](orchestrator, run)
    assert len(decoded) == dataset.file_count


# --------------------------------------------------------------------- #
# The helper lane: a failure there surfaces typed, in file order, on the
# thread that steps the scheduler
# --------------------------------------------------------------------- #
@pytest.fixture
def corrupt_second_file(monkeypatch):
    """The victim's second received blob carries a section that no longer
    inflates; every lane call goes to the lane (these files are under its grain)."""
    monkeypatch.setattr(HelperLane, "GRAIN_BYTES", 0)
    real = phases._received_blobs

    def received(orchestrator, record):
        blobs = real(orchestrator, record)
        if orchestrator.config.tenant == "victim":
            name, payload = blobs[1]
            blob = CompressedBlob.from_bytes(payload)
            section = blob.block_index[0]["section"]
            blob.container.add_section(section, b"not a deflate stream", overwrite=True)
            blobs[1] = (name, blob.to_bytes())
        return blobs

    monkeypatch.setattr(phases, "_received_blobs", received)


def test_an_earlier_bound_violation_wins_over_a_later_corrupt_section(
    bound_breaker, corrupt_second_file, dataset, solo_report
):
    """File 2's sections inflate on the lane while file 1 decodes, and
    fail there first; file 1's bound check still decides the error."""
    service = _service()
    overrides = {"tenant": "victim", "compressor": "bound-breaker"}
    victim = service.submit(_spec(dataset, overrides=overrides))
    service.run_pending()
    assert victim.status is JobStatus.FAILED
    with pytest.raises(ErrorBoundViolation):
        victim.result()
    _assert_a_later_job_runs_alone(service, dataset, solo_report)


def test_a_corrupt_section_fails_its_job_with_a_typed_error(
    corrupt_second_file, dataset, solo_report
):
    service = _service()
    victim = service.submit(_spec(dataset, overrides={"tenant": "victim"}))
    service.run_pending()
    assert victim.status is JobStatus.FAILED
    with pytest.raises(EncodingError, match="deflate"):
        victim.result()
    _assert_a_later_job_runs_alone(service, dataset, solo_report)


def test_the_helper_lane_is_one_thread_however_many_jobs_run(monkeypatch, dataset, solo_report):
    monkeypatch.setattr(HelperLane, "GRAIN_BYTES", 0)
    service = _service()
    assert service.submit(_spec(dataset)).result().as_dict() == solo_report
    before = threading.active_count()
    for _ in range(50):
        service.submit(_spec(dataset))
    service.run_pending()
    assert threading.active_count() == before
    assert [t.name for t in threading.enumerate()].count("ocelot-lane") == 1
