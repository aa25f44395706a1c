"""Seismic (RTM) campaign with batch-queue waiting and the sentinel fallback.

RTM produces thousands of wavefield snapshots that must reach a remote
analysis site.  Compression jobs go through the site's batch scheduler,
which may hold them in the queue; the sentinel transfers raw snapshots
while waiting so the end-to-end time never degrades below a plain Globus
transfer.

Run with::

    python examples/seismic_sentinel_workflow.py
"""

from __future__ import annotations

from repro import Ocelot, OcelotConfig
from repro.datasets import generate_application
from repro.faas import NodeWaitModel, build_faas_service
from repro.transfer import build_testbed


def run_with_wait(wait_seconds: float, sentinel: bool):
    dataset = generate_application("rtm", snapshots=48, scale=0.04, seed=21)
    faas = build_faas_service(
        wait_models={"anvil": NodeWaitModel(kind="constant", scale_s=wait_seconds)}
    )
    testbed = build_testbed()
    config = OcelotConfig(
        error_bound=1e-3,
        compressor="sz3-fast",
        size_scale=17_000.0,
        assumed_compression_throughput_mbps=300.0,
        assumed_decompression_throughput_mbps=500.0,
        sentinel_enabled=sentinel,
        group_world_size=6,
    )
    ocelot = Ocelot(config, testbed=testbed, faas=faas)
    return ocelot.transfer_dataset(dataset, "anvil", "bebop", mode="grouped")


def main() -> None:
    print("RTM campaign, Anvil -> Bebop, 48 snapshots (~680 GB staged)\n")
    for wait in (0.0, 300.0, 3600.0):
        with_sentinel = run_with_wait(wait, sentinel=True)
        without_sentinel = run_with_wait(wait, sentinel=False)
        print(f"node wait {wait:6.0f}s | sentinel ON : total {with_sentinel.total_s:8.1f}s "
              f"(raw-during-wait: {'yes' if with_sentinel.timings.raw_transfer_s > 0 else 'no'})")
        print(f"{'':>18}| sentinel OFF: total {without_sentinel.total_s:8.1f}s "
              f"(direct transfer would take {without_sentinel.direct_transfer_s:.1f}s)")
        print()


if __name__ == "__main__":
    main()
