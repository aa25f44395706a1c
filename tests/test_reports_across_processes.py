"""A default configuration's report is the same in every process.

Every simulated second is a model: compute is billed as nominal bytes at
``OcelotConfig``'s assumed throughputs, queue waits are seeded samples,
and WAN time follows from bytes and chunk availability.  Nothing reads
this host's wall clock, so two processes — with different hash salts —
running the same transfer from a default ``OcelotConfig`` report ``==``
floats, in bulk/grouped mode and in streamed mode, where chunk
availability would follow wall-timed encodes if any were billed.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

SCRIPT = """
import json
from repro.core import Ocelot, OcelotConfig
from repro.datasets import generate_application

dataset = generate_application(
    "miranda", snapshots=1, scale=0.1, seed=4, fields=["density", "pressure", "velocityx"]
)
bulk = Ocelot(OcelotConfig()).transfer_dataset(dataset, "anvil", "cori")
streamed = Ocelot(OcelotConfig(transfer_mode="streamed", block_size=32)).transfer_dataset(
    dataset, "anvil", "cori", mode="compressed"
)
print(json.dumps([bulk.as_dict(), streamed.as_dict()]))
"""


def _reports(salt: str) -> list:
    out = subprocess.run(
        [sys.executable, "-c", SCRIPT], check=True, capture_output=True, text=True,
        env={**os.environ, "PYTHONHASHSEED": salt},
    ).stdout
    return json.loads(out)


def test_default_config_reports_are_equal_across_processes():
    first, second = _reports("1"), _reports("2")
    assert [(r["mode"], r["transfer_mode"]) for r in first] == [
        ("grouped", "bulk"),
        ("compressed", "streamed"),
    ]
    chunks = re.search(r"streamed (\d+) block chunks", " ".join(first[1]["notes"]))
    assert int(chunks.group(1)) > first[1]["file_count"]  # several blocks per file
    assert first[0]["timings"]["compression_s"] > 0 and first[1]["timings"]["streaming_s"] > 0
    assert first == second
