"""Table II — effective transfer speed vs file size (Cori <-> Bebop route).

300 GB is transferred as 1 MB / 10 MB / 100 MB / 1000 MB files; the
effective speed collapses for many small files and saturates for large
files.
"""

from __future__ import annotations

import pytest

from repro.transfer import build_testbed

from common import print_table

TOTAL_BYTES = 300 * 10**9
FILE_SIZES_MB = (1, 10, 100, 1000)
PAPER_SPEEDS_MBPS = {1: 247.0, 10: 921.1, 100: 1120.0, 1000: 1060.0}


def _sweep():
    testbed = build_testbed()
    link = testbed.service.topology.link("bebop", "cori")
    engine = testbed.service.engine
    rows = []
    for size_mb in FILE_SIZES_MB:
        file_size = size_mb * 10**6
        count = TOTAL_BYTES // file_size
        estimate = engine.estimate([file_size] * int(count), link)
        rows.append(
            {
                "file_size": f"{size_mb}M",
                "num_files": int(count),
                "speed_MBps": estimate.effective_speed_mbps,
                "duration_s": estimate.duration_s,
                "paper_speed_MBps": PAPER_SPEEDS_MBPS[size_mb],
            }
        )
    return rows


@pytest.mark.benchmark(group="table2")
def test_table2_transfer_speed_vs_file_size(benchmark):
    rows = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    print_table("Table II: 300 GB between Cori and Bebop, varying file size", rows)
    speeds = {row["file_size"]: row["speed_MBps"] for row in rows}
    # Shape: tiny files are several times slower; speed saturates by 100 MB.
    assert speeds["1M"] < speeds["10M"] < speeds["100M"]
    assert speeds["1M"] < 0.35 * speeds["100M"]
    assert abs(speeds["1000M"] - speeds["100M"]) / speeds["100M"] < 0.25
    # Calibration: within ~35% of the paper's measured speeds.
    for row in rows:
        assert row["speed_MBps"] == pytest.approx(row["paper_speed_MBps"], rel=0.35)
