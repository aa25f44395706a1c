#!/usr/bin/env python3
"""The repo's standing end-to-end benchmark.

    python3 bench/run.py [--workload NAME] [--seed N] [--seconds S]
                         [--trace [0|1]] [--quick] [--out FILE]

With ``--workload`` one workload runs in this interpreter and the last
line of stdout is one JSON object (``correct``, ``attempted``, ``failed``,
``metrics``): the end-to-end metrics of an untraced run (``--trace 0``) or
the per-layer ledger of a traced run (``--trace 1``).  Without it, every
workload in ``BENCHMARK.json`` runs one after another, each in a fresh
interpreter (so caches and peak RSS do not leak between them, and never
two at once), and the merged result is written to
``bench/out/result-<seed>.json``.

Inputs come from ``--seed`` alone; the program under test receives only
the generated inputs.  Exit status is non-zero when any output was wrong.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Sequence

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, "out")
# ``bench/trace.py`` must never shadow the stdlib ``trace`` module, so the
# script directory leaves sys.path and ``bench`` is imported as a package.
sys.path[:] = [p for p in sys.path if os.path.abspath(p or os.getcwd()) != BENCH_DIR]
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

from bench.layers import install  # noqa: E402
from bench.ledger import per_layer, summarize  # noqa: E402
from bench.trace import Tracer  # noqa: E402

DEFAULT_SEED = 12
#: Full set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
QUICK_JOBS = 2
QUICK_GATEWAY_JOBS = 60
SSE_REPLAY_JOBS = 50


def load_benchmark() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


# --------------------------------------------------------------------- #
# Statistics
# --------------------------------------------------------------------- #
def percentile(values: Sequence[float], q: int) -> float:
    """``q``-th percentile (inclusive method: never outside the sample)."""
    if len(values) < 2:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# --------------------------------------------------------------------- #
# One workload, this interpreter
# --------------------------------------------------------------------- #
def timed_setups(workload: Any, quick: bool) -> List[float]:
    walls = []
    for _ in range(1 if quick else SETUP_REPEATS):
        workload.close()  # tearing the previous set-up down is not set-up
        gc.collect()
        start = time.perf_counter()
        workload.setup()
        walls.append(time.perf_counter() - start)
    return walls


def job_loop(workload: Any, seconds: float, count: Optional[int],
             tracer: Any = None) -> List[Any]:
    """Closed loop: ``count`` jobs, or as many as start within ``seconds``.

    With a tracer, jobs alternate untraced / traced (``extra["traced"]``
    says which), so the tracing-overhead baseline sees the same machine
    state as the traced jobs; at least two of each kind run.
    """
    from bench.workloads import JobResult

    results: List[Any] = []
    deadline = time.perf_counter() + seconds
    floor = count or (4 if tracer is not None else 2)
    while len(results) < floor or (count is None and time.perf_counter() < deadline):
        k = 1 + len(results)
        traced = tracer is not None and k % 2 == 0
        # Start every job from a collected heap, outside the timing: peak
        # RSS otherwise depends on when the cyclic collector last ran.
        gc.collect()
        if traced:
            tracer.job = k
            tracer.enabled = True
        try:
            result = workload.run_job(k)
        except Exception as exc:  # noqa: BLE001 - a failed job is a data point
            result = JobResult(0.0, 0, 0.0, 0.0, errors=[f"job {k}: {exc!r}"])
        finally:
            if traced:
                tracer.enabled = False
        result.extra.update(job=k, traced=traced)
        results.append(result)
    return results


def end_to_end(results: Sequence[Any], setup_walls: Sequence[float],
               loop_wall_s: Optional[float] = None) -> Dict[str, Dict[str, Any]]:
    good = [r for r in results if r.wall_s > 0]
    walls = [r.wall_s for r in good]
    loop_wall_s = loop_wall_s if loop_wall_s is not None else sum(walls)
    return {
        "setup_s": summarize(setup_walls),
        "transfer_MBps": summarize([r.raw_bytes / 1e6 / r.wall_s for r in good]),
        "compression_ratio": summarize([r.compression_ratio for r in good]),
        "psnr_db": summarize([r.psnr_db for r in good]),
        "jobs_per_s": summarize([len(good) / loop_wall_s]),
        "job_latency_p50_ms": summarize([w * 1e3 for w in walls]),
        "peak_rss_MB": summarize([peak_rss_mb()]),
    }


def report_extras(results: Sequence[Any]) -> Dict[str, Dict[str, Any]]:
    """Per-layer values read off the jobs' reports rather than off spans."""
    good = [r for r in results if r.wall_s > 0]
    out = {
        "transfer.wan_bytes": summarize([r.extra["wan_bytes"] for r in good]),
        "transfer.sim_wan_s": summarize([r.extra["sim_wan_s"] for r in good]),
        "job_latency_p90_ms": summarize([percentile([r.wall_s for r in good], 90) * 1e3]),
        "job_latency_p99_ms": summarize([percentile([r.wall_s for r in good], 99) * 1e3]),
    }
    predicted = [r for r in good if r.extra.get("predicted")]
    if predicted:
        out["prediction.ratio_err_pct"] = summarize([
            abs(r.extra["predicted"]["compression_ratio"] - r.compression_ratio)
            / r.compression_ratio * 100.0 for r in predicted])
        out["prediction.psnr_err_db"] = summarize([
            abs(r.extra["predicted"]["psnr_db"] - r.psnr_db) for r in predicted])
    return out


def run_inprocess(workload: Any, seconds: float, trace: bool, quick: bool) -> Dict[str, Any]:
    setup_walls = timed_setups(workload, quick)
    attempted, problems = workload.gate()
    tracer = None
    if trace:
        tracer = Tracer(adopt_orphans=True)
        install(tracer, step_label=workload.step_label)
    count = (2 * QUICK_JOBS if trace else QUICK_JOBS) if quick else None
    jobs = job_loop(workload, seconds, count, tracer)
    untraced = [r for r in jobs if not r.extra["traced"]]
    detail: Dict[str, Any] = {"end_to_end": end_to_end(untraced, setup_walls)}
    if tracer is not None:
        traced = [r for r in jobs if r.extra["traced"] and r.wall_s > 0]
        windows = [
            {"id": r.extra["job"], "start": r.extra["start"],
             "end": r.extra["start"] + r.wall_s, "wall": r.wall_s}
            for r in traced
        ]
        layers = per_layer(windows, tracer.spans)
        layers.update(report_extras(traced))
        for name, value in workload.finish().items():
            layers[name] = summarize([value])
        warm = statistics.median(r.wall_s for r in traced)
        if "cache.cold_iter_s" in layers:
            layers["cache.warm_speedup"] = summarize(
                [layers["cache.cold_iter_s"]["median"] / warm])
        base = statistics.median(r.wall_s for r in untraced if r.wall_s > 0)
        layers["trace.overhead_frac"] = summarize([warm / base - 1.0])
        detail["per_layer"] = layers
        tracer.dump(os.path.join(OUT_DIR, f"trace-{workload.name}.json"),
                    workload=workload.name, jobs=windows)
    problems += [problem for r in jobs for problem in r.errors]
    detail["attempted"] = attempted + len(jobs)
    detail["failed"] = len(problems)
    detail["problems"] = problems[:20]
    return detail


def run_gateway(workload: Any, seconds: float, trace: bool, quick: bool) -> Dict[str, Any]:
    from bench.workloads import JobResult

    setup_walls = timed_setups(workload, quick)
    attempted, problems = workload.gate()
    jobs = QUICK_GATEWAY_JOBS if quick else workload.job_count(seconds)

    # Everything a client can see comes from the untraced loop, traced run
    # or not: tracing slows the server, and latency depends on it.
    gc.collect()
    wall_s, rows = workload.http_loop(jobs)
    problems += workload.check_rows(rows)
    attempted += jobs
    reports = [row["record"].get("report") or {} for row in rows]
    results = [
        JobResult(row["latency_s"], workload.raw_bytes,
                  float(report.get("compression_ratio", 0.0)),
                  float(report.get("measured_psnr_db", 0.0)))
        for row, report in zip(rows, reports)
    ]
    detail: Dict[str, Any] = {
        "end_to_end": end_to_end(results, setup_walls, loop_wall_s=wall_s)}
    if trace:
        latencies = [row["latency_s"] for row in rows]
        quarter = max(1, len(rows) // 4)
        metricsz_s, metrics = workload.metricsz()
        sse_rate = workload.sse_replay(rows, min(SSE_REPLAY_JOBS, len(rows)))
        inprocess_s = workload.inprocess_drain(jobs)

        workload.setup()  # a fresh gateway in the state the untraced loop saw
        tracer = Tracer(adopt_orphans=False)
        install(tracer, deep=False)
        gc.collect()
        tracer.enabled = True
        traced_wall_s, traced = workload.http_loop(jobs)
        tracer.enabled = False
        problems += workload.check_rows(traced)
        attempted += jobs
        start = min(row["sent"] for row in traced)
        # "Job wall" is what a client waits: with two clients in flight the
        # latencies sum to about twice the loop wall.
        window = {"id": None, "start": start, "end": start + traced_wall_s,
                  "wall": sum(row["latency_s"] for row in traced), "n": len(traced)}
        layers = per_layer([window], tracer.spans)
        extras = {
            "gateway.post_ms_p50": statistics.median(r["post_s"] for r in rows) * 1e3,
            "gateway.wait_ms_p50": statistics.median(r["wait_s"] for r in rows) * 1e3,
            "gateway.http_overhead_ratio": wall_s / inprocess_s,
            "gateway.latency_drift_ratio": (
                statistics.median(latencies[-quarter:])
                / statistics.median(latencies[:quarter])),
            "gateway.metricsz_ms": metricsz_s * 1e3,
            "gateway.sse_replay_events_per_s": sse_rate,
            "gateway.bus_published": metrics["bus"]["published"],
            "gateway.bus_dropped": metrics["bus"]["dropped"],
            "service.inprocess_jobs_per_s": jobs / inprocess_s,
            "transfer.wan_bytes": statistics.median(
                r.get("transferred_bytes", 0) for r in reports),
            "transfer.sim_wan_s": statistics.median(
                (r.get("timings") or {}).get("transfer_s", 0.0) for r in reports),
            "job_latency_p90_ms": percentile(latencies, 90) * 1e3,
            "job_latency_p99_ms": percentile(latencies, 99) * 1e3,
            "trace.overhead_frac": traced_wall_s / wall_s - 1.0,
        }
        layers.update({name: summarize([value]) for name, value in extras.items()})
        detail["per_layer"] = layers
        tracer.dump(os.path.join(OUT_DIR, f"trace-{workload.name}.json"),
                    workload=workload.name, jobs=[window])
    detail["attempted"] = attempted
    detail["failed"] = len(problems)
    detail["problems"] = problems[:20]
    return detail


def run_one(args: argparse.Namespace, bench: Dict[str, Any]) -> int:
    """Run one workload here; print the contract's JSON as the last line."""
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("bench/run.py: no src/repro next to bench/ — nothing to measure",
              file=sys.stderr)
        return 2
    from bench.workloads import WORKLOADS, GatewaySmallJobs

    os.makedirs(OUT_DIR, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, args.quick, OUT_DIR)
    started = time.perf_counter()
    try:
        runner = run_gateway if isinstance(workload, GatewaySmallJobs) else run_inprocess
        detail = runner(workload, args.seconds, bool(args.trace), args.quick)
    finally:
        workload.close()
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in bench[section]}
    unknown = sorted(set(detail[section]) - set(units))
    if unknown:
        raise SystemExit(f"metrics missing from BENCHMARK.json {section}: {unknown}")
    absent = {"median": 0.0, "q1": 0.0, "q3": 0.0, "n": 0}
    for kind in ("end_to_end", "per_layer"):
        if kind in detail:
            # A layer this workload bypasses reads 0 (e.g. cache.* with the
            # cache off), so every run names every metric, in file order.
            detail[kind] = {
                metric["name"]: {**detail[kind].get(metric["name"], absent),
                                 "unit": metric["unit"]}
                for metric in bench[kind]
            }
    detail.update(workload=args.workload, seed=args.seed, trace=int(bool(args.trace)),
                  quick=args.quick, seconds=args.seconds,
                  wall_s=time.perf_counter() - started,
                  failed_frac=detail["failed"] / detail["attempted"])
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(detail, handle, indent=1)
    print(f"== {args.workload} (seed {args.seed}, {'traced' if args.trace else 'untraced'}) ==")
    for name, row in detail[section].items():
        print(f"  {name:34s} {row['median']:14.6g} {row['unit']:6s} "
              f"[q1 {row['q1']:.6g}, q3 {row['q3']:.6g}, n={row['n']}]")
    print(f"  failed_frac                        {detail['failed_frac']:14.6g}        "
          f"({detail['failed']} of {detail['attempted']})")
    for problem in detail["problems"]:
        print(f"  FAILED: {problem}")
    print(json.dumps({
        "correct": detail["failed"] == 0,
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": {name: {"value": row["median"], "unit": row["unit"]}
                    for name, row in detail[section].items()},
    }))
    return 0 if detail["failed"] == 0 else 1


# --------------------------------------------------------------------- #
# All workloads, one fresh interpreter each
# --------------------------------------------------------------------- #
def environment() -> Dict[str, Any]:
    import numpy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": os.cpu_count(), "platform": platform.platform(), "git_commit": commit,
    }


def run_all(args: argparse.Namespace, bench: Dict[str, Any]) -> int:
    os.makedirs(OUT_DIR, exist_ok=True)
    started = time.perf_counter()
    result: Dict[str, Any] = {"seed": args.seed, "quick": args.quick,
                              "seconds": args.seconds, "env": environment(),
                              "workloads": {}}
    status = 0
    # A quick run takes both metric sets from one traced child per
    # workload (its untraced half gives the end-to-end ones).
    passes = [1] if args.quick else ([0, 1] if args.trace else [0])
    for name in [w["name"] for w in bench["workloads"]]:
        merged: Dict[str, Any] = {"attempted": 0, "failed": 0, "problems": []}
        for trace in passes:
            detail_path = os.path.join(OUT_DIR, f"detail-{name}-{trace}.json")
            command = [sys.executable, os.path.abspath(__file__), "--workload", name,
                       "--seed", str(args.seed), "--seconds", str(args.seconds),
                       "--trace", str(trace), "--out", detail_path]
            if args.quick:
                command.append("--quick")
            child = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            sys.stdout.write("\n".join(child.stdout.splitlines()[:-1]) + "\n")
            if child.returncode not in (0, 1):
                print(f"{name}: benchmark child exited with {child.returncode}")
                return child.returncode
            status = max(status, child.returncode)
            with open(detail_path) as handle:
                detail = json.load(handle)
            os.remove(detail_path)
            if trace == 0 or args.quick:
                merged["end_to_end"] = detail["end_to_end"]
            if trace == 1:
                merged["per_layer"] = detail["per_layer"]
            merged["attempted"] += detail["attempted"]
            merged["failed"] += detail["failed"]
            merged["problems"] += detail["problems"]
        merged["end_to_end"]["failed_frac"] = {
            "median": merged["failed"] / merged["attempted"], "q1": 0.0, "q3": 0.0,
            "n": merged["attempted"], "unit": "frac"}
        result["workloads"][name] = merged
    result["wall_s"] = time.perf_counter() - started
    out = args.out or os.path.join(OUT_DIR, f"result-{args.seed}.json")
    with open(out, "w") as handle:
        json.dump(result, handle, indent=1)
    print(f"wrote {os.path.relpath(out, ROOT)} ({result['wall_s']:.1f} s)")
    return status


def main(argv: Optional[Sequence[str]] = None) -> int:
    bench = load_benchmark()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=float(bench["run_seconds"]),
                        help="measurement budget per workload run")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="1: traced run, per-layer ledger; 0: untraced, end-to-end")
    parser.add_argument("--quick", action="store_true",
                        help="smoke-test sizes: small inputs, 2 iterations, 60 gateway jobs")
    parser.add_argument("--out", help="write the full result (medians, quartiles, n) here")
    args = parser.parse_args(argv)
    return run_one(args, bench) if args.workload else run_all(args, bench)


if __name__ == "__main__":
    sys.exit(main())
