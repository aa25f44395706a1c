"""Smoke test of the standing benchmark (collected by the tier-1 run).

Runs ``bench/run.py --quick`` — small inputs, 2 iterations, 60 gateway
jobs, tracing on — in a subprocess and checks that the output names
exactly the workloads and metrics ``BENCHMARK.json`` lists, that nothing
failed, and that the span arithmetic is sane.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from bench.compare import verdict
from bench.trace import children_of, self_time

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


@pytest.fixture(scope="module")
def quick_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench") / "result.json"
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--quick", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    return json.loads(out.read_text())


def test_output_names_exactly_the_declared_workloads_and_metrics(quick_run):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert list(quick_run["workloads"]) == [w["name"] for w in bench["workloads"]]
    for name, result in quick_run["workloads"].items():
        assert set(result["end_to_end"]) == (
            {m["name"] for m in bench["end_to_end"]} | {"failed_frac"}), name
        assert set(result["per_layer"]) == {m["name"] for m in bench["per_layer"]}, name
        assert result["end_to_end"]["failed_frac"]["median"] == 0, result["problems"]
        assert result["failed"] == 0 and result["attempted"] > 0
        assert "core.ledger_coverage_frac" in result["per_layer"]
        for metric in bench["end_to_end"]:
            assert result["end_to_end"][metric["name"]]["median"] > 0, (name, metric["name"])
    assert {"python", "numpy", "nproc", "platform", "git_commit"} <= set(quick_run["env"])


def test_bypass_predictions_hold(quick_run):
    layers = {name: {k: v["median"] for k, v in result["per_layer"].items()}
              for name, result in quick_run["workloads"].items()}
    assert layers["bulk_sz3_huffman"]["rans.calls"] == 0
    assert layers["bulk_sz3_huffman"]["huffman.calls"] > 0
    streamed = layers["streamed_rans_adaptive"]
    assert streamed["huffman.calls"] <= 0.05 * streamed["rans.calls"]
    assert streamed["predictors.candidates_per_block"] >= 2
    for cache_off in ("bulk_sz3_huffman", "streamed_rans_adaptive"):
        assert layers[cache_off]["cache.get_ms_p50"] == 0
        assert layers[cache_off]["cache.digest_MBps"] == 0
    assert layers["resync_cache_grouped"]["cache.blob_hit_rate"] > 0.5


def test_self_times_never_exceed_their_span(quick_run):
    for name in quick_run["workloads"]:
        dump = json.loads((BENCH / "out" / f"trace-{name}.json").read_text())
        spans = [SimpleNamespace(**dict(zip(dump["columns"], row)),
                                 duration=row[4] - row[3])
                 for row in dump["spans"]]
        assert spans, name
        ids = {span.id for span in spans}
        kids = children_of(spans)
        for span in spans:
            assert span.parent is None or span.parent in ids
            own = self_time(span, kids)
            assert -1e-9 <= own <= span.duration + 1e-9, (name, span.name)


def test_compare_verdicts():
    higher = {"better": "higher", "bound": 0.10}
    lower = {"better": "lower", "bound": 0.10}

    def side(median, spread=0.0):
        return {"median": median, "q1": median - spread, "q3": median + spread}

    assert verdict(higher, side(100), side(105))["verdict"] == "same"
    assert verdict(higher, side(100, 1), side(80, 1))["verdict"] == "worse"
    assert verdict(higher, side(100, 1), side(120, 1))["verdict"] == "better"
    assert verdict(higher, side(100, 15), side(85, 15))["verdict"] == "unresolved"
    assert verdict(lower, side(100, 1), side(120, 1))["verdict"] == "worse"
    assert verdict({"better": "lower", "bound": 0.0}, side(0.0), side(0.1))["verdict"] == "worse"
