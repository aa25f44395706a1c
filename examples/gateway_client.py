"""Gateway walkthrough: drive Ocelot over HTTP with nothing but stdlib.

Boots a gateway in-process on an ephemeral port (in production you would
run ``ocelot serve --host 0.0.0.0 --port 8080`` instead), then talks to
it the way any external client would — ``urllib`` only, no SDK:

1. submit a job (``POST /v1/jobs``, dataset as a generation recipe);
2. block on it (``GET /v1/jobs/{id}/wait``) and read the full record;
3. replay its event timeline over SSE, then resume the stream from the
   middle with ``Last-Event-ID`` — the reconnect path;
4. fan out a plan group (``POST /v1/plan-groups``: every spec is
   validated before any is submitted) and watch its status;
5. snapshot ``/metricsz``.

Run with::

    PYTHONPATH=src python examples/gateway_client.py
"""

from __future__ import annotations

import json
import urllib.request

from repro.core import OcelotConfig
from repro.gateway import create_gateway

SPEC = {
    "dataset": {
        "application": "miranda",
        "snapshots": 1,
        "scale": 0.03,
        "seed": 4,
        "fields": ["density", "pressure"],
    },
    "source": "anvil",
    "destination": "cori",
    "mode": "compressed",
    "tenant": "astro",
}


def get(base: str, path: str) -> dict:
    with urllib.request.urlopen(base + path, timeout=60) as response:
        return json.load(response)


def post(base: str, path: str, payload: dict | None = None) -> dict:
    request = urllib.request.Request(
        base + path,
        data=json.dumps(payload or {}).encode(),
        method="POST",
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=60) as response:
        return json.load(response)


def sse_frames(base: str, path: str, last_event_id: int | None = None) -> list[dict]:
    """Read an SSE stream to completion (it closes after the terminal event)."""
    headers = {}
    if last_event_id is not None:
        headers["Last-Event-ID"] = str(last_event_id)
    request = urllib.request.Request(base + path, headers=headers)
    frames = []
    with urllib.request.urlopen(request, timeout=60) as response:
        for chunk in response.read().decode().split("\n\n"):
            lines = [ln for ln in chunk.split("\n") if ln and not ln.startswith(":")]
            if lines:
                frames.append({k: v for k, _, v in (ln.partition(": ") for ln in lines)})
    return frames


def main() -> None:
    config = OcelotConfig(
        error_bound=1e-3,
        compressor="sz3-fast",
        mode="compressed",
        sentinel_enabled=False,
        size_scale=20_000.0,
        assumed_compression_throughput_mbps=300.0,
        assumed_decompression_throughput_mbps=500.0,
        compression_nodes=2,
        decompression_nodes=2,
    )
    with create_gateway(config=config) as gateway:
        base = gateway.url
        print(f"gateway up at {base}")
        print(f"healthz: {get(base, '/healthz')}")

        # 1 + 2: submit, wait, inspect -------------------------------- #
        job = post(base, "/v1/jobs", SPEC)
        job_id = job["job_id"]
        print(f"\nsubmitted {job_id} ({job['status']})")
        record = get(base, f"/v1/jobs/{job_id}/wait?timeout=60")
        report = get(base, f"/v1/jobs/{job_id}")["report"]
        print(
            f"finished {record['status']}: {report['total_bytes']:,} bytes "
            f"-> {report['transferred_bytes']:,} on the wire "
            f"({report['compression_ratio']:.2f}x) in {record['makespan_s']:.1f}s simulated"
        )

        # 3: SSE replay + Last-Event-ID resume ------------------------ #
        frames = sse_frames(base, f"/v1/jobs/{job_id}/events")
        print(f"\nSSE replay: {len(frames)} events")
        for frame in frames[:3]:
            print(f"  id={frame['id']:>2} {frame['event']}")
        print(f"  ... through id={frames[-1]['id']} {frames[-1]['event']}")
        middle = int(frames[len(frames) // 2]["id"])
        resumed = sse_frames(base, f"/v1/jobs/{job_id}/events", last_event_id=middle)
        print(f"resumed after id={middle}: {len(resumed)} events "
              f"(first id={resumed[0]['id']}, no replayed prefix)")

        # 4: plan group ------------------------------------------------ #
        group = post(base, "/v1/plan-groups", {"jobs": [SPEC] * 4, "label": "demo"})
        print(f"\nplan group {group['group_id']}: {group['total']} jobs submitted atomically")
        for member in group["jobs"]:
            get(base, f"/v1/jobs/{member}/wait?timeout=120")
        final = get(base, f"/v1/plan-groups/{group['group_id']}")
        print(f"group status: {final['status']} {final['status_counts']}")

        # 5: metrics --------------------------------------------------- #
        metrics = get(base, "/metricsz")
        print(
            f"\nmetricsz: {metrics['jobs']['total']} jobs "
            f"({metrics['jobs'].get('completed', 0)} completed), "
            f"{metrics['jobs_per_sec']['simulated']:.3f} jobs/s simulated, "
            f"bus published {metrics['bus']['published']} events"
        )


if __name__ == "__main__":
    main()
