"""Golden training records: the quality model's inputs are pinned.

``golden_training.json`` holds, for the benchmark's fixed "historical"
Miranda corpus (seed 1001, ``scale=0.03``) swept over
``DEFAULT_ERROR_BOUNDS`` through ``sz3``, every record's features,
compression ratio, PSNR and maximum absolute error.  Nothing in the
sweep reads a clock or a thread count, so the rows compare with ``==``,
floats included.  A change to the entropy coder's model (code lengths,
the P0 feature) that moves any of them fails here, by record.
``python tests/test_golden_training.py`` prints a fresh table,
``python tests/test_golden_training.py --diff`` only the values that
moved, as ``old -> new``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any, Dict, Iterator, List

import pytest

from repro.datasets import generate_application
from repro.prediction import build_training_records
from repro.prediction.training import DEFAULT_ERROR_BOUNDS

GOLDEN_PATH = Path(__file__).with_name("golden_training.json")

#: The corpus ``bench/workloads.py`` trains the bulk workload's predictor
#: on, at a scale small enough for the tier-1 suite.
CORPUS_SEED = 1001
CORPUS_SCALE = 0.03


def training_rows() -> Dict[str, Dict[str, Any]]:
    """``field/bound`` -> the record's features and measured outcomes."""
    corpus = generate_application("miranda", snapshots=1, scale=CORPUS_SCALE, seed=CORPUS_SEED)
    records = build_training_records(
        corpus.fields, error_bounds=DEFAULT_ERROR_BOUNDS, compressors=("sz3",)
    )
    rows = {
        f"{r.field_name}/{r.error_bound_label}": {
            "features": r.features.as_dict(),
            "compression_ratio": r.compression_ratio,
            "psnr_db": r.psnr_db,
            "max_abs_error": r.extra["max_abs_error"],
        }
        for r in records
    }
    return json.loads(json.dumps(rows))


@pytest.fixture(scope="module")
def golden() -> Dict[str, Any]:
    return json.loads(GOLDEN_PATH.read_text())


def test_training_records_match_the_recording(golden):
    fresh = training_rows()
    assert sorted(fresh) == sorted(golden)
    assert len(golden) == 8 * len(DEFAULT_ERROR_BOUNDS)
    for key in golden:
        assert fresh[key] == golden[key], key


def diff_rows() -> Iterator[str]:
    """One line per value that differs from ``golden_training.json``."""
    golden = json.loads(GOLDEN_PATH.read_text())
    fresh = training_rows()
    for key in sorted(set(golden) | set(fresh)):
        if key not in golden or key not in fresh:
            yield f"{key}: {'added' if key not in golden else 'removed'}"
            continue
        old, new = golden[key], fresh[key]
        flat_old = {**old["features"], **{k: v for k, v in old.items() if k != "features"}}
        flat_new = {**new["features"], **{k: v for k, v in new.items() if k != "features"}}
        for name in sorted(set(flat_old) | set(flat_new)):
            before, after = flat_old.get(name, "<absent>"), flat_new.get(name, "<absent>")
            if before != after:
                yield f"{key}.{name}: {before!r} -> {after!r}"


def main(argv: List[str]) -> None:
    """Print a fresh table, or with ``--diff`` only what moved against the recorded one."""
    if "--diff" in argv:
        moved = list(diff_rows())
        print("\n".join(moved + [f"{len(moved)} values differ from {GOLDEN_PATH.name}"]))
        return
    print(json.dumps(training_rows(), indent=1, sort_keys=True))


if __name__ == "__main__":
    main(sys.argv[1:])
