"""Golden transfer reports: every mode's phase steps and report are pinned.

``golden_reports.json`` holds, for 26 configurations of one seeded
8-file dataset, the phase steps ``(name, duration_s, endpoint, nodes,
link, detail)``, ``TransferReport.as_dict()`` and the final simulated
clock.  Every run sets ``assumed_compression_throughput_mbps`` /
``assumed_decompression_throughput_mbps`` and plans without the
predictor, so no measured wall time reaches a simulated second and the
rows compare with ``==``, floats included, against the recording as the
tree writes it (re-recorded when a one-block file became one block
message instead of a container inside a container: two streamed rows
moved, in wire bytes and the times derived from them only).
``python tests/test_golden_reports.py`` prints a fresh table.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path
from typing import Any, Callable, Dict, Optional

import numpy as np
import pytest

from repro.core import OcelotConfig, OcelotOrchestrator
from repro.core.phases import MODE_PHASES, PHASE_ORDER
from repro.datasets import Field, ScientificDataset
from repro.faas import NodeWaitModel, build_faas_service
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


def _run(
    config: OcelotConfig,
    mode: Optional[str] = None,
    node_wait_s: float = 0.0,
    advance_clock: bool = True,
    dataset: Optional[ScientificDataset] = None,
) -> Dict[str, Any]:
    """One transfer on a fresh testbed: its steps, report and final clock."""
    testbed = build_testbed()
    faas = build_faas_service(
        clock=testbed.clock,
        wait_models={"anvil": NodeWaitModel(kind="constant", scale_s=node_wait_s)},
    )
    orchestrator = OcelotOrchestrator(config, testbed=testbed, faas=faas)
    phases = orchestrator.iter_phases(
        dataset or golden_dataset(), "anvil", "bebop", mode=mode, advance_clock=advance_clock
    )
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
    row = {"steps": steps, "report": report.as_dict(), "clock": testbed.clock.now}
    return json.loads(json.dumps(row))  # tuples become lists, as in the file


def _streamed(**overrides: Any) -> OcelotConfig:
    return _config(transfer_mode="streamed", block_size=16, **overrides)


def _sentinel(size_scale: float, **overrides: Any) -> OcelotConfig:
    return _config(sentinel_enabled=True, size_scale=size_scale, **overrides)


def _cached(cache_dir: Path, **overrides: Any) -> OcelotConfig:
    overrides.setdefault("cache_mode", "readwrite")
    return _config(cache_dir=str(cache_dir), **overrides)


def _warmed(
    cache_dir: Path, config: OcelotConfig, n_fields: int = 8, **run: Any
) -> Dict[str, Any]:
    """``config``'s run after a bulk run has cached the first ``n_fields``."""
    _run(_cached(cache_dir), dataset=golden_dataset(n_fields))
    return _run(config, **run)


#: Row id -> ``run(cache_dir)``; the directory is fresh for every row.
ROWS: Dict[str, Callable[[Path], Dict[str, Any]]] = {
    # Table VIII's modes, and the streamed variants of CP.
    "direct": lambda d: _run(_config(), mode="direct"),
    "compressed": lambda d: _run(_config()),
    "grouped": lambda d: _run(_config(group_world_size=3), mode="grouped"),
    "grouped/target-bytes": lambda d: _run(_config(group_target_bytes=4000), mode="grouped"),
    "streamed/blocked": lambda d: _run(_streamed()),
    "streamed/whole-file": lambda d: _run(_config(transfer_mode="streamed")),
    "streamed/grouped-fallback": lambda d: _run(_streamed(group_world_size=3), mode="grouped"),
    "streamed/rans-adaptive": lambda d: _run(
        _streamed(adaptive_predictor=True, entropy_stage="rans", shared_codebook=False)
    ),
    # The sentinel, under a constant node wait.
    "sentinel/off": lambda d: _run(_config(size_scale=ALL_RAW_SCALE), node_wait_s=120.0),
    "sentinel/below-threshold": lambda d: _run(_sentinel(ALL_RAW_SCALE), node_wait_s=3.0),
    "sentinel/all-raw/bulk": lambda d: _run(_sentinel(ALL_RAW_SCALE), node_wait_s=120.0),
    "sentinel/all-raw/grouped": lambda d: _run(
        _sentinel(ALL_RAW_SCALE), mode="grouped", node_wait_s=120.0
    ),
    "sentinel/all-raw/streamed": lambda d: _run(
        _sentinel(ALL_RAW_SCALE, transfer_mode="streamed", block_size=16), node_wait_s=120.0
    ),
    "sentinel/all-raw/unclocked": lambda d: _run(
        _sentinel(ALL_RAW_SCALE), node_wait_s=120.0, advance_clock=False
    ),
    "sentinel/some-raw/bulk": lambda d: _run(_sentinel(SOME_RAW_SCALE), node_wait_s=120.0),
    "sentinel/some-raw/grouped": lambda d: _run(
        _sentinel(SOME_RAW_SCALE, group_world_size=3), mode="grouped", node_wait_s=120.0
    ),
    "sentinel/some-raw/streamed": lambda d: _run(
        _sentinel(SOME_RAW_SCALE, transfer_mode="streamed", block_size=16), node_wait_s=120.0
    ),
    "sentinel/some-raw/unclocked": lambda d: _run(
        _sentinel(SOME_RAW_SCALE), node_wait_s=120.0, advance_clock=False
    ),
    # The blob cache.
    "cache/cold": lambda d: _run(_cached(d)),
    "cache/warm": lambda d: _warmed(d, _cached(d)),
    "cache/read-only-grouped": lambda d: _warmed(
        d, _cached(d, cache_mode="read", group_world_size=3), mode="grouped"
    ),
    "cache/full-hit-streamed": lambda d: _warmed(d, _cached(d, transfer_mode="streamed")),
    "cache/cold-streamed": lambda d: _run(_cached(d, transfer_mode="streamed", block_size=16)),
    "cache/partial/bulk": lambda d: _warmed(d, _cached(d), n_fields=4),
    "cache/partial/streamed-bypass": lambda d: _warmed(
        d, _cached(d, transfer_mode="streamed"), n_fields=4
    ),
    "cache/partial/sentinel-takes-misses": lambda d: _warmed(
        d,
        _cached(d, sentinel_enabled=True, size_scale=SOME_RAW_SCALE),
        n_fields=4,
        node_wait_s=120.0,
    ),
}


def golden_row(row_id: str) -> Dict[str, Any]:
    with tempfile.TemporaryDirectory() as cache_dir:
        return ROWS[row_id](Path(cache_dir))


@pytest.fixture(scope="module")
def golden() -> Dict[str, Any]:
    return json.loads(GOLDEN_PATH.read_text())


def test_matrix_is_the_recorded_one(golden):
    assert sorted(ROWS) == sorted(golden) and len(ROWS) == 26


@pytest.mark.parametrize("row_id", sorted(ROWS))
def test_steps_report_and_clock_match_the_recording(golden, row_id):
    assert golden_row(row_id) == golden[row_id]


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


def main() -> None:
    print(json.dumps({row_id: golden_row(row_id) for row_id in ROWS}, indent=1))


if __name__ == "__main__":
    main()
