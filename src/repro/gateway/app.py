"""Framework-free HTTP route logic of the gateway.

The environment is offline and dependency-frozen, so there is no
FastAPI/Flask here: :class:`GatewayAPI` is a plain router — it takes
``(method, path, query, body)`` from whatever HTTP server fronts it and
returns ``(status, JSON payload)``.  All service access goes through
the :class:`~repro.gateway.driver.GatewayDriver`, never the raw
service, so route handlers inherit its locking.

The wire format for a job is a JSON :class:`~repro.service.spec.TransferSpec`
whose dataset is a *generation recipe* (the same recipe the durable job
store persists for crash recovery) — datasets are deterministic, so a
recipe fully identifies the bytes a client wants moved::

    {
      "dataset": {"application": "miranda", "snapshots": 1, "scale": 0.03},
      "source": "anvil", "destination": "cori",
      "mode": "compressed", "tenant": "astro", "priority": "high",
      "overrides": {"error_bound": 1e-4}
    }

Error mapping is structural, not string-matched: every
:class:`~repro.errors.ReproError` carries a machine-readable ``code``
that lands in the JSON error body — a library error raised while
handling a request (they are all boundary validation) maps to HTTP 400,
unknown job/group ids to 404, and everything unexpected to 500.  The server
refuses a body over :data:`MAX_BODY_BYTES` with 413 before reading it.
"""

from __future__ import annotations

import json
import threading
from typing import Dict, List, Optional, Tuple

from ..datasets import generate_application
from ..errors import OrchestrationError, ReproError
from ..service import TransferSpec
from .driver import GatewayDriver, UnknownGroupError, UnknownJobError

__all__ = ["GatewayAPI", "spec_from_payload"]

Response = Tuple[int, Dict[str, object]]

_SPEC_KEYS = frozenset(
    {"dataset", "source", "destination", "mode", "label", "tenant",
     "priority", "overrides"}
)
_DATASET_KEYS = frozenset(
    {"application", "snapshots", "scale", "seed", "fields", "dtype"}
)
#: Hard cap on one plan group (bounds validation work per request).
MAX_GROUP_SIZE = 256
#: Longest ``/wait`` hold (seconds) one request may ask for.
MAX_WAIT_S = 300.0
#: Largest request body (bytes) the server will read; a longer
#: ``Content-Length`` is answered 413 without reading it.  A full plan
#: group of ``MAX_GROUP_SIZE`` specs is well under a tenth of this.
MAX_BODY_BYTES = 1 << 20


def spec_from_payload(payload: object) -> TransferSpec:
    """Build a :class:`TransferSpec` from its JSON wire form.

    Shape errors raise :class:`~repro.errors.OrchestrationError`
    (``invalid_request``); the dataset recipe is materialised here, so
    an unknown application fails before any job state exists.
    """
    if not isinstance(payload, dict):
        raise OrchestrationError(
            f"job spec must be a JSON object, got {type(payload).__name__}"
        )
    unknown = set(payload) - _SPEC_KEYS
    if unknown:
        raise OrchestrationError(
            f"unknown job spec field(s) {sorted(unknown)}; "
            f"allowed: {sorted(_SPEC_KEYS)}"
        )
    recipe = payload.get("dataset")
    if not isinstance(recipe, dict) or "application" not in recipe:
        raise OrchestrationError(
            "job spec needs a 'dataset' object with at least an "
            "'application' name (a dataset generation recipe)"
        )
    unknown = set(recipe) - _DATASET_KEYS
    if unknown:
        raise OrchestrationError(
            f"unknown dataset recipe field(s) {sorted(unknown)}; "
            f"allowed: {sorted(_DATASET_KEYS)}"
        )
    dataset = generate_application(**recipe)
    for key in ("source", "destination"):
        if not isinstance(payload.get(key), str) or not payload[key]:
            raise OrchestrationError(f"job spec needs a non-empty string {key!r}")
    overrides = payload.get("overrides") or {}
    if not isinstance(overrides, dict):
        raise OrchestrationError("'overrides' must be a JSON object")
    return TransferSpec(
        dataset=dataset,
        source=payload["source"],
        destination=payload["destination"],
        mode=payload.get("mode"),
        label=str(payload.get("label") or ""),
        tenant=payload.get("tenant"),
        priority=payload.get("priority"),
        overrides=dict(overrides),
    )


def error_response(exc: BaseException) -> Response:
    """Map an exception to ``(HTTP status, JSON error body)``."""
    if isinstance(exc, UnknownJobError):
        return 404, {"error": f"unknown job {exc.args[0]!r}", "code": "unknown_job"}
    if isinstance(exc, UnknownGroupError):
        return 404, {"error": f"unknown plan group {exc.args[0]!r}",
                     "code": "unknown_plan_group"}
    if isinstance(exc, ReproError):
        return 400, exc.as_payload()
    if isinstance(exc, (json.JSONDecodeError, UnicodeDecodeError)):
        return 400, {"error": f"request body is not valid JSON: {exc}",
                     "code": "bad_json"}
    if isinstance(exc, (TypeError, ValueError, KeyError)):
        return 400, {"error": str(exc) or type(exc).__name__, "code": "bad_request"}
    return 500, {"error": f"{type(exc).__name__}: {exc}", "code": "internal_error"}


class GatewayAPI:
    """Route table of the gateway (everything except the SSE stream)."""

    def __init__(self, driver: GatewayDriver) -> None:
        self.driver = driver
        self._counts: Dict[str, int] = {}
        self._counts_lock = threading.Lock()

    # ------------------------------------------------------------------ #
    def count_request(self, route: str) -> None:
        """Tally one served request under its route pattern."""
        with self._counts_lock:
            self._counts[route] = self._counts.get(route, 0) + 1

    def request_counts(self) -> Dict[str, int]:
        """Requests served per route pattern since boot."""
        with self._counts_lock:
            return dict(self._counts)

    @staticmethod
    def sse_job_id(method: str, path: str) -> Optional[str]:
        """The job id when ``(method, path)`` is the SSE events route."""
        parts = [part for part in path.split("/") if part]
        if method == "GET" and len(parts) == 4 and parts[:2] == ["v1", "jobs"] \
                and parts[3] == "events":
            return parts[2]
        return None

    # ------------------------------------------------------------------ #
    def dispatch(self, method: str, path: str, query: Dict[str, List[str]],
                 body: bytes) -> Response:
        """Serve one JSON request; exceptions become error responses."""
        try:
            return self._route(method, path, query, body)
        except Exception as exc:  # noqa: BLE001 - mapped to HTTP statuses
            return error_response(exc)

    def _route(self, method: str, path: str, query: Dict[str, List[str]],
               body: bytes) -> Response:
        parts = [part for part in path.split("/") if part]
        if parts == ["healthz"] and method == "GET":
            self.count_request("GET /healthz")
            return 200, {"status": "ok", "clock_s": self.driver.service.testbed.clock.now}
        if parts == ["metricsz"] and method == "GET":
            self.count_request("GET /metricsz")
            metrics = self.driver.metrics()
            metrics["http"] = {"requests": self.request_counts()}
            return 200, metrics
        if parts[:2] == ["v1", "jobs"]:
            return self._route_jobs(method, parts[2:], query, body)
        if parts[:2] == ["v1", "plan-groups"]:
            return self._route_groups(method, parts[2:], body)
        return 404, {"error": f"no route for {path!r}", "code": "not_found"}

    # ------------------------------------------------------------------ #
    def _route_jobs(self, method: str, rest: List[str],
                    query: Dict[str, List[str]], body: bytes) -> Response:
        if not rest:
            if method == "POST":
                self.count_request("POST /v1/jobs")
                spec = spec_from_payload(_parse_json(body))
                return 201, self.driver.submit(spec)
            if method == "GET":
                self.count_request("GET /v1/jobs")
                tenant = _first(query, "tenant")
                records = self.driver.records(tenant=tenant)
                return 200, {"jobs": records, "count": len(records)}
            return _method_not_allowed(method)
        job_id = rest[0]
        if len(rest) == 1:
            if method != "GET":
                return _method_not_allowed(method)
            self.count_request("GET /v1/jobs/{id}")
            return 200, self.driver.record(job_id, full=True)
        if len(rest) == 2 and rest[1] == "cancel":
            if method != "POST":
                return _method_not_allowed(method)
            self.count_request("POST /v1/jobs/{id}/cancel")
            return 200, self.driver.cancel(job_id)
        if len(rest) == 2 and rest[1] == "wait":
            if method != "GET":
                return _method_not_allowed(method)
            self.count_request("GET /v1/jobs/{id}/wait")
            timeout = _wait_timeout(_first(query, "timeout"))
            finished = self.driver.wait(job_id, timeout=timeout)
            record = self.driver.record(job_id, full=False)
            record["timed_out"] = not finished
            return (200 if finished else 408), record
        return 404, {"error": f"no route for /v1/jobs/{'/'.join(rest)}",
                     "code": "not_found"}

    def _route_groups(self, method: str, rest: List[str], body: bytes) -> Response:
        if not rest:
            if method == "POST":
                self.count_request("POST /v1/plan-groups")
                payload = _parse_json(body)
                if not isinstance(payload, dict) or not isinstance(
                        payload.get("jobs"), list):
                    raise OrchestrationError(
                        "plan group body needs a 'jobs' array of job specs"
                    )
                specs_json = payload["jobs"]
                if not specs_json:
                    raise OrchestrationError("plan group 'jobs' array is empty")
                if len(specs_json) > MAX_GROUP_SIZE:
                    raise OrchestrationError(
                        f"plan group exceeds {MAX_GROUP_SIZE} jobs "
                        f"({len(specs_json)} submitted)"
                    )
                specs = []
                for index, spec_json in enumerate(specs_json):
                    try:
                        specs.append(spec_from_payload(spec_json))
                    except ReproError as exc:
                        exc.args = (f"plan group spec #{index}: {exc}",)
                        raise
                label = str(payload.get("label") or "")
                return 201, self.driver.submit_group(specs, label=label)
            if method == "GET":
                self.count_request("GET /v1/plan-groups")
                groups = self.driver.groups()
                return 200, {"plan_groups": groups, "count": len(groups)}
            return _method_not_allowed(method)
        if len(rest) == 1:
            if method != "GET":
                return _method_not_allowed(method)
            self.count_request("GET /v1/plan-groups/{id}")
            return 200, self.driver.group(rest[0])
        return 404, {"error": "no such plan-group route", "code": "not_found"}


# --------------------------------------------------------------------- #
def _parse_json(body: bytes) -> object:
    if not body:
        raise OrchestrationError("request body is empty; expected JSON")
    return json.loads(body.decode("utf-8"))


def _first(query: Dict[str, List[str]], key: str) -> Optional[str]:
    values = query.get(key)
    return values[0] if values else None


def _wait_timeout(raw: Optional[str]) -> float:
    """Seconds a ``/wait`` may hold; ``ValueError`` (400) unless a number >= 0."""
    if raw is None:
        return 30.0
    try:
        timeout = float(raw)
        if not timeout >= 0.0:  # negative or NaN
            raise ValueError
    except ValueError:
        raise ValueError(
            f"bad timeout {raw!r}: expected seconds as a number >= 0") from None
    return min(timeout, MAX_WAIT_S)


def _method_not_allowed(method: str) -> Response:
    return 405, {"error": f"method {method} not allowed here",
                 "code": "method_not_allowed"}
