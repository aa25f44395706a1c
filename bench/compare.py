#!/usr/bin/env python3
"""Compare two ``bench/run.py`` result files, one row per workload x metric.

    python3 bench/compare.py A.json B.json

``A`` is the base (the parent commit, or the first of two A/A runs), ``B``
the candidate.  Each end-to-end metric gets both medians, the relative
change with its base, and a verdict against the bound ``BENCHMARK.json``
fixes for it:

* ``same``        the change is within the bound;
* ``better`` / ``worse``   it exceeds the bound and the two sides'
  inter-quartile ranges are disjoint;
* ``unresolved``  it exceeds the bound but the inter-quartile ranges
  overlap — the run-to-run spread is wider than the claim.

Exits non-zero when any row reads ``worse``.
"""

from __future__ import annotations

import json
import os
import sys
from typing import Any, Dict, List, Optional, Sequence

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Not in BENCHMARK.json (the contract carries it as attempted/failed):
#: any increase in the failed share is a regression.
FAILED_FRAC = {"name": "failed_frac", "unit": "frac", "better": "lower", "bound": 0.0}


def verdict(metric: Dict[str, Any], base: Dict[str, Any], cand: Dict[str, Any]) -> Dict[str, Any]:
    """Relative change of ``cand`` against ``base`` and what it means."""
    a, b = base["median"], cand["median"]
    change = (b - a) / abs(a) if a else (0.0 if b == a else float("inf") * (1 if b > a else -1))
    gain = change if metric["better"] == "higher" else -change
    if abs(gain) <= metric["bound"]:
        word = "same"
    elif base["q1"] <= cand["q3"] and cand["q1"] <= base["q3"]:
        word = "unresolved"
    else:
        word = "better" if gain > 0 else "worse"
    return {"base": a, "candidate": b, "change": change, "verdict": word}


def compare(base: Dict[str, Any], cand: Dict[str, Any],
            bench: Dict[str, Any]) -> List[Dict[str, Any]]:
    rows = []
    metrics = list(bench["end_to_end"]) + [FAILED_FRAC]
    for workload in [w["name"] for w in bench["workloads"]]:
        side_a = base["workloads"].get(workload, {}).get("end_to_end", {})
        side_b = cand["workloads"].get(workload, {}).get("end_to_end", {})
        for metric in metrics:
            name = metric["name"]
            if name in side_a and name in side_b:
                rows.append({"workload": workload, "metric": name, "unit": metric["unit"],
                             "bound": metric["bound"],
                             **verdict(metric, side_a[name], side_b[name])})
    return rows


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    if len(args) != 2:
        print(__doc__)
        return 2
    with open(args[0]) as handle:
        base = json.load(handle)
    with open(args[1]) as handle:
        cand = json.load(handle)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    rows = compare(base, cand, bench)
    workload = None
    for row in rows:
        if row["workload"] != workload:
            workload = row["workload"]
            print(f"\n== {workload} ==")
            print(f"  {'metric':22s} {'base':>12s} {'candidate':>12s} {'change':>9s} "
                  f"{'bound':>6s}  verdict")
        print(f"  {row['metric']:22s} {row['base']:12.6g} {row['candidate']:12.6g} "
              f"{row['change']:+9.2%} {row['bound']:6.3f}  {row['verdict']}"
              f"  (base {row['base']:.6g} {row['unit']})")
    worse = [row for row in rows if row["verdict"] == "worse"]
    print(f"\n{len(rows)} rows: " + ", ".join(
        f"{sum(1 for r in rows if r['verdict'] == word)} {word}"
        for word in ("better", "same", "worse", "unresolved")))
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
