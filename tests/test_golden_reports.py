"""Golden transfer reports: every mode's phase steps and report are pinned.

``golden_reports.json`` holds, for 24 configurations of one seeded
8-file dataset, the phase steps ``(name, duration_s, endpoint, nodes,
link, detail)`` and ``TransferReport.as_dict()``.  Every simulated second is a model (these
runs bill compute at 300 / 600 MB/s and plan without the predictor), so
the rows compare with ``==``, floats included, against the recording as
the tree writes it.  Phases return durations and never move the clock, so
the steps are what ``OcelotOrchestrator.iter_phases`` yields however it
is driven; each row is also run as a one-job ``OcelotService`` batch,
which must report the same and end the clock at the report's
``total_s``.  ``python tests/test_golden_reports.py`` prints a fresh table,
``python tests/test_golden_reports.py --diff`` only the rows and keys
that moved, as ``old -> new``.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np
import pytest

from repro.core import OcelotConfig, OcelotOrchestrator
from repro.core.phases import MODE_PHASES, PHASE_ORDER
from repro.datasets import Field, ScientificDataset
from repro.faas import NodeWaitModel, build_faas_service
from repro.service import OcelotService, TransferSpec
from repro.transfer import build_testbed

GOLDEN_PATH = Path(__file__).with_name("golden_reports.json")

#: ``size_scale`` at which a constant 120 s node wait lets the sentinel
#: ship every file raw, and one at which it ships only a prefix.
ALL_RAW_SCALE = 2_000.0
SOME_RAW_SCALE = 2_000_000.0


def golden_dataset(n_fields: int = 8) -> ScientificDataset:
    """Eight 48x48 float32 random walks, built from bounded integers.

    As in ``test_golden_blobs.golden_field``: one division by a power of
    two and no transcendental routine between the seed and the bytes.
    A prefix (``n_fields`` < 8) names the same files, which is how the
    partial-hit rows warm the cache for 4 of 8.
    """
    rng = np.random.default_rng(1623)
    fields = []
    for index in range(8):
        steps = rng.integers(-(1 << 15), 1 << 15, size=(48, 48))
        walk = (np.cumsum(steps, axis=1) / 4096.0).astype(np.float32)
        fields.append(Field(name=f"w{index}", data=walk, application="golden"))
    return ScientificDataset("golden", fields[:n_fields])


def _config(**overrides: Any) -> OcelotConfig:
    base: Dict[str, Any] = dict(
        mode="compressed",
        compressor="sz3-fast",
        error_bound=1e-3,
        size_scale=3000.0,
        compression_nodes=2,
        decompression_nodes=2,
        cores_per_node=4,
        sentinel_enabled=False,
        assumed_compression_throughput_mbps=300.0,
        assumed_decompression_throughput_mbps=600.0,
    )
    base.update(overrides)
    return OcelotConfig(**base)


def _substrate(node_wait_s: float) -> Dict[str, Any]:
    """A fresh testbed and site table with a constant node wait on anvil."""
    testbed = build_testbed()
    faas = build_faas_service(
        wait_models={"anvil": NodeWaitModel(kind="constant", scale_s=node_wait_s)},
    )
    return {"testbed": testbed, "faas": faas}


def _run(
    config: OcelotConfig,
    mode: Optional[str] = None,
    node_wait_s: float = 0.0,
    dataset: Optional[ScientificDataset] = None,
) -> Dict[str, Any]:
    """One transfer's phase generator driven alone: its steps and report."""
    orchestrator = OcelotOrchestrator(config, **_substrate(node_wait_s))
    phases = orchestrator.iter_phases(dataset or golden_dataset(), "anvil", "bebop", mode=mode)
    steps = []
    while True:
        try:
            step = next(phases)
        except StopIteration as stop:
            report = stop.value
            break
        steps.append(
            [step.name, step.duration_s, step.endpoint, step.nodes, step.link, step.detail]
        )
    assert orchestrator.testbed.clock.now == 0.0, "a phase moved the clock"
    row = {"steps": steps, "report": report.as_dict()}
    return json.loads(json.dumps(row))  # tuples become lists, as in the file


def _scheduled(
    config: OcelotConfig,
    mode: Optional[str] = None,
    node_wait_s: float = 0.0,
    dataset: Optional[ScientificDataset] = None,
) -> Tuple[Dict[str, Any], float]:
    """The same transfer as a one-job service batch: its report and final clock."""
    substrate = _substrate(node_wait_s)
    service = OcelotService(config, **substrate)
    spec = TransferSpec(dataset or golden_dataset(), "anvil", "bebop", mode=mode)
    report = service.submit(spec).result()
    return json.loads(json.dumps(report.as_dict())), substrate["testbed"].clock.now


def _streamed(**overrides: Any) -> OcelotConfig:
    return _config(transfer_mode="streamed", block_size=16, **overrides)


def _sentinel(size_scale: float, **overrides: Any) -> OcelotConfig:
    return _config(sentinel_enabled=True, size_scale=size_scale, **overrides)


def _cached(cache_dir: Path, **overrides: Any) -> OcelotConfig:
    overrides.setdefault("cache_mode", "readwrite")
    return _config(cache_dir=str(cache_dir), **overrides)


def _warmed(
    cache_dir: Path, run: Callable[..., Any], config: OcelotConfig, n_fields: int = 8,
    **options: Any,
) -> Any:
    """``config``'s ``run`` after a bulk run has cached the first ``n_fields``."""
    _run(_cached(cache_dir), dataset=golden_dataset(n_fields))
    return run(config, **options)


#: Row id -> ``row(cache_dir, run)``, ``run`` being :func:`_run` or
#: :func:`_scheduled`; the directory is fresh for every call.
ROWS: Dict[str, Callable[[Path, Callable[..., Any]], Any]] = {
    # Table VIII's modes, and the streamed variants of CP.
    "direct": lambda d, run: run(_config(), mode="direct"),
    "compressed": lambda d, run: run(_config()),
    "grouped": lambda d, run: run(_config(group_world_size=3), mode="grouped"),
    "grouped/target-bytes": lambda d, run: run(
        _config(group_target_bytes=4000), mode="grouped"
    ),
    "streamed/blocked": lambda d, run: run(_streamed()),
    "streamed/whole-file": lambda d, run: run(_config(transfer_mode="streamed")),
    "streamed/grouped-fallback": lambda d, run: run(
        _streamed(group_world_size=3), mode="grouped"
    ),
    "streamed/rans-adaptive": lambda d, run: run(
        _streamed(adaptive_predictor=True, entropy_stage="rans", shared_codebook=False)
    ),
    # The sentinel, under a constant node wait.
    "sentinel/off": lambda d, run: run(_config(size_scale=ALL_RAW_SCALE), node_wait_s=120.0),
    "sentinel/below-threshold": lambda d, run: run(_sentinel(ALL_RAW_SCALE), node_wait_s=3.0),
    "sentinel/all-raw/bulk": lambda d, run: run(_sentinel(ALL_RAW_SCALE), node_wait_s=120.0),
    "sentinel/all-raw/grouped": lambda d, run: run(
        _sentinel(ALL_RAW_SCALE), mode="grouped", node_wait_s=120.0
    ),
    "sentinel/all-raw/streamed": lambda d, run: run(
        _sentinel(ALL_RAW_SCALE, transfer_mode="streamed", block_size=16), node_wait_s=120.0
    ),
    "sentinel/some-raw/bulk": lambda d, run: run(_sentinel(SOME_RAW_SCALE), node_wait_s=120.0),
    "sentinel/some-raw/grouped": lambda d, run: run(
        _sentinel(SOME_RAW_SCALE, group_world_size=3), mode="grouped", node_wait_s=120.0
    ),
    "sentinel/some-raw/streamed": lambda d, run: run(
        _sentinel(SOME_RAW_SCALE, transfer_mode="streamed", block_size=16), node_wait_s=120.0
    ),
    # The blob cache.
    "cache/cold": lambda d, run: run(_cached(d)),
    "cache/warm": lambda d, run: _warmed(d, run, _cached(d)),
    "cache/read-only-grouped": lambda d, run: _warmed(
        d, run, _cached(d, cache_mode="read", group_world_size=3), mode="grouped"
    ),
    "cache/full-hit-streamed": lambda d, run: _warmed(
        d, run, _cached(d, transfer_mode="streamed")
    ),
    "cache/cold-streamed": lambda d, run: run(
        _cached(d, transfer_mode="streamed", block_size=16)
    ),
    "cache/partial/bulk": lambda d, run: _warmed(d, run, _cached(d), n_fields=4),
    "cache/partial/streamed-bypass": lambda d, run: _warmed(
        d, run, _cached(d, transfer_mode="streamed"), n_fields=4
    ),
    "cache/partial/sentinel-takes-misses": lambda d, run: _warmed(
        d,
        run,
        _cached(d, sentinel_enabled=True, size_scale=SOME_RAW_SCALE),
        n_fields=4,
        node_wait_s=120.0,
    ),
}


def golden_row(row_id: str, run: Callable[..., Any] = _run) -> Any:
    with tempfile.TemporaryDirectory() as cache_dir:
        return ROWS[row_id](Path(cache_dir), run)


@pytest.fixture(scope="module")
def golden() -> Dict[str, Any]:
    return json.loads(GOLDEN_PATH.read_text())


def test_matrix_is_the_recorded_one(golden):
    assert sorted(ROWS) == sorted(golden) and len(ROWS) == 24


@pytest.mark.parametrize("row_id", sorted(ROWS))
def test_steps_report_and_clock_match_the_recording(golden, row_id):
    """The phase generator driven alone yields the pinned steps and report,
    and moves no clock."""
    assert golden_row(row_id) == golden[row_id]


@pytest.mark.parametrize("row_id", sorted(ROWS))
def test_one_job_batch_reports_the_recording_and_ends_the_clock_at_total(golden, row_id):
    """The scheduler, running the same job as a batch of one, reports the
    same and alone moves the clock — to the job's Total T, summed in
    timeline order."""
    report, clock = golden_row(row_id, _scheduled)
    assert report == golden[row_id]["report"]
    assert clock == pytest.approx(report["total_s"], rel=1e-12)


@pytest.mark.parametrize(
    "mode, expected",
    [
        ("direct", ("stage", "ship_raw")),
        (
            "compressed",
            ("stage", "plan", "wait", "stream", "compress", "group", "transfer", "decompress"),
        ),
        (
            "grouped",
            ("stage", "plan", "wait", "stream", "compress", "group", "transfer", "decompress"),
        ),
    ],
)
def test_mode_phase_table(mode, expected):
    """A reordered or edited phase list fails here, by name."""
    assert MODE_PHASES[mode] == expected
    assert sorted(MODE_PHASES) == ["compressed", "direct", "grouped"]


@pytest.mark.parametrize(
    "row_id, names",
    [
        ("direct", ["stage", "transfer"]),
        ("compressed", ["stage", "plan", "wait", "compress", "transfer", "decompress"]),
        ("grouped", ["stage", "plan", "wait", "compress", "group", "transfer", "decompress"]),
        ("streamed/blocked", ["stage", "plan", "wait", "stream"]),
    ],
)
def test_yielded_step_names(golden, row_id, names):
    """What a driver sees: phases that do not apply yield nothing."""
    yielded = [step[0] for step in golden[row_id]["steps"]]
    assert yielded == names and set(yielded) <= set(PHASE_ORDER)


def diff_rows() -> Iterator[str]:
    """One line per value that differs from ``golden_reports.json``."""
    golden = json.loads(GOLDEN_PATH.read_text())
    fresh = {row_id: golden_row(row_id) for row_id in ROWS}
    for row_id in sorted(set(golden) | set(fresh)):
        if row_id not in golden or row_id not in fresh:
            yield f"{row_id}: {'added' if row_id not in golden else 'removed'}"
        else:
            yield from _moves(golden[row_id], fresh[row_id], row_id)


def _moves(old: Any, new: Any, path: str) -> Iterator[str]:
    """``path: old -> new`` for every leaf that moved (floats with their relative move)."""
    if isinstance(old, dict) and isinstance(new, dict):
        for key in sorted(set(old) | set(new)):
            yield from _moves(old.get(key, "<absent>"), new.get(key, "<absent>"), f"{path}.{key}")
    elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        for index, (left, right) in enumerate(zip(old, new)):
            yield from _moves(left, right, f"{path}[{index}]")
    elif old != new:
        rel = ""
        if isinstance(old, float) and isinstance(new, float) and old:
            rel = f" ({(new - old) / abs(old):+.1e} rel)"
        yield f"{path}: {old!r} -> {new!r}{rel}"


def main(argv: List[str]) -> None:
    """Print a fresh table, or with ``--diff`` only what moved against the recorded one."""
    if "--diff" in argv:
        moved = list(diff_rows())
        print("\n".join(moved + [f"{len(moved)} values differ from {GOLDEN_PATH.name}"]))
        return
    print(json.dumps({row_id: golden_row(row_id) for row_id in ROWS}, indent=1))


if __name__ == "__main__":
    main(sys.argv[1:])
