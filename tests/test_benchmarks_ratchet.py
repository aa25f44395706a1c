"""One home for wall-clock: a ratchet over ``benchmarks/``.

``bench/`` gates and stores wall-clock numbers by protocol; tier-1
collects ``benchmarks/``, so a test there may assert only what two runs
reproduce exactly, or a same-run ratio timed through the one helper
``benchmarks/common.py::best_of``.  Each rule below may only tighten.
"""

from __future__ import annotations

import ast
import importlib.util
import re
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parents[1]
BENCHMARKS = ROOT / "benchmarks"
MODULES = sorted(BENCHMARKS.glob("*.py"))

#: The modules that time anything at all: kernels against in-tree
#: reference implementations, and the paper's Fig. 4 / Fig. 13 overheads.
#: May only lose names.
TIMED = {"test_codec_throughput.py", "test_fig13_overhead.py", "test_fig4_entropy_vs_time.py"}

#: What kept single-shot floors from tripping, and where they were stored.
BANNED_TEXT = ("BENCH_", "os.environ", "os.getenv", "time.sleep", "gc.disable", "/dev/shm")

#: The paper's evaluation, one test per table / figure / ablation.  May
#: only gain names; so may ``MIN_TEST_FUNCTIONS``.
PAPER_TESTS = {
    "test_table1_data_based_features",
    "test_table2_transfer_speed_vs_file_size",
    "test_table5_ratio_and_time_prediction_examples",
    "test_table6_7_psnr_prediction",
    "test_table8_end_to_end_transfer",
    "test_fig4_entropy_vs_compression_cost",
    "test_fig5_compressor_features_vs_ratio",
    "test_fig6_c1_baseline_vs_learned_model",
    "test_fig7_8_psnr_vs_compressor_features",
    "test_fig9_parallel_compression_and_decompression_scaling",
    "test_fig12_prediction_error_distribution",
    "test_fig13a_prediction_overhead",
    "test_fig13b_compression_time_ranges_per_application",
    "test_fig14_rtm_compression_cost_vs_features",
    "test_fig15_reconstruction_visual_quality",
    "test_ablation_compression_pipelines",
    "test_ablation_feature_groups",
    "test_ablation_grouping_strategy",
    "test_ablation_sentinel",
}
MIN_TEST_FUNCTIONS = 36


def _trees():
    assert BENCHMARKS / "common.py" in MODULES  # no rule below passes vacuously
    return [(path, ast.parse(path.read_text())) for path in MODULES]


def _inside(tree: ast.AST, is_scope) -> set:
    """ids of every node nested in a node ``is_scope`` accepts."""
    return {
        id(inner)
        for outer in ast.walk(tree) if is_scope(outer)
        for inner in ast.walk(outer)
    }


def test_the_clock_is_read_only_inside_best_of():
    offenders = []
    for path, tree in _trees():
        allowed = _inside(
            tree,
            lambda node: path.name == "common.py"
            and isinstance(node, ast.FunctionDef) and node.name == "best_of",
        )
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported = {alias.name.split(".")[0] for alias in node.names}
                clock = "timeit" in imported or (
                    "time" in imported and path.name != "common.py")
            elif isinstance(node, ast.ImportFrom):
                clock = node.module in ("time", "timeit")
            else:
                clock = (
                    isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name) and node.value.id == "time"
                    and id(node) not in allowed
                )
            if clock:
                offenders.append(f"{path.name}:{node.lineno}")
    assert not offenders


def test_only_the_listed_modules_time_anything():
    timed = {
        path.name
        for path, tree in _trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and node.id == "best_of"
    }
    assert timed <= TIMED


def test_best_of_is_the_minimum_of_exactly_n_calls():
    spec = importlib.util.spec_from_file_location("benchmarks_common", BENCHMARKS / "common.py")
    common = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(common)
    ticks = iter([0.0, 5.0, 5.0, 6.0, 6.0, 9.0])  # three calls: 5 s, 1 s, 3 s
    common.time = SimpleNamespace(perf_counter=lambda: next(ticks))
    calls = []
    assert common.best_of(lambda: calls.append(None), repeats=3) == 1.0
    assert len(calls) == 3 and next(ticks, None) is None


def test_no_stored_numbers_environment_knobs_or_flake_workarounds():
    offenders = [
        f"{path.name}: {text}"
        for path in MODULES
        for text in BANNED_TEXT
        if text in path.read_text()
    ]
    assert not offenders


def test_file_paths_are_only_used_to_import_common():
    """Nothing can write beside itself: ``__file__`` only feeds ``sys.path``."""
    offenders = []
    for path, tree in _trees():
        allowed = _inside(
            tree,
            lambda node: isinstance(node, ast.Call)
            and ast.unparse(node.func) == "sys.path.insert",
        )
        offenders += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and node.id == "__file__"
            and (path.name != "conftest.py" or id(node) not in allowed)
        ]
    assert not offenders


def test_no_results_file_sits_beside_the_benchmarks():
    assert [path.name for path in BENCHMARKS.iterdir() if path.suffix == ".json"] == []


def test_every_paper_table_and_figure_keeps_its_test():
    found = [
        node.name
        for _, tree in _trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name.startswith("test_")
    ]
    assert PAPER_TESTS <= set(found)
    assert len(found) >= MIN_TEST_FUNCTIONS


def test_ci_runs_the_benchmarks_once_and_checks_the_tree():
    workflow = (ROOT / ".github" / "workflows" / "ci.yml").read_text()
    assert len(re.findall(r"pytest .*benchmarks", workflow)) == 1
    assert "upload-artifact" not in workflow and "BENCH_" not in workflow
    assert 'git diff --exit-code && test -z "$(git status --porcelain)"' in workflow
