"""The network face of the gateway: stdlib threaded HTTP + SSE.

No web framework ships in this environment, so the server is a
:class:`http.server.ThreadingHTTPServer` — one OS thread per in-flight
request, which is exactly the shape the
:class:`~repro.gateway.driver.GatewayDriver` serialises.  JSON routes
delegate to :class:`~repro.gateway.app.GatewayAPI`; the one streaming
route, ``GET /v1/jobs/{id}/events``, is served here because it owns the
socket for the stream's lifetime.

SSE framing (one frame per :class:`~repro.service.events.JobEvent`)::

    id: <seq>
    event: <kind>
    data: <event JSON>
    <blank line>

The ``id`` is the job's monotonic event ``seq``, so a reconnecting
client sends the standard ``Last-Event-ID`` header (or ``?since=``) and
the stream resumes after that event instead of replaying the feed.
Replay and live tail are one loop over the job's own feed: the stream
writes what follows the last ``seq`` it sent, then parks on the
:class:`~repro.gateway.bus.EventBus` counter until anything is
published, taking the driver lock once per wake.  The stream holds no
events of its own, so however long a client sleeps it loses none.
Streams close after delivering the job's terminal event.
"""

from __future__ import annotations

import json
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import List, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from ..core.config import OcelotConfig
from ..service import OcelotService
from ..service.events import JobEvent
from .app import MAX_BODY_BYTES, GatewayAPI, error_response
from .driver import GatewayDriver, UnknownJobError

__all__ = ["Gateway", "create_gateway"]

#: How long a quiet SSE stream waits between keepalives.
_SSE_POLL_S = 0.25


class _GatewayHTTPServer(ThreadingHTTPServer):
    """Threaded server carrying the gateway wiring for its handlers."""

    daemon_threads = True
    allow_reuse_address = True
    # The stdlib's listen backlog of 5 overflows when a dozen clients
    # connect at once (an SSE fan-out); each dropped SYN costs its
    # client the kernel's 1 s retransmit timer.
    request_queue_size = 128

    api: GatewayAPI
    driver: GatewayDriver

    def handle_error(self, request: object, client_address: object) -> None:
        # A client that went away before its (buffered) response did is
        # not worth a traceback on stderr; the socket is closed either way.
        if not isinstance(sys.exc_info()[1], (BrokenPipeError, ConnectionResetError)):
            super().handle_error(request, client_address)


class _Handler(BaseHTTPRequestHandler):
    """Route HTTP requests into the gateway API (plus the SSE stream)."""

    protocol_version = "HTTP/1.1"
    server: _GatewayHTTPServer
    # A response leaves in one segment: headers and body share a buffer
    # that the stdlib handler flushes once per request, and Nagle is off.
    # Two small writes with Nagle on cost a keep-alive client the peer's
    # delayed-ACK timer (~40 ms) on every response.
    wbufsize = -1
    disable_nagle_algorithm = True

    # The stdlib handler logs every request to stderr; a gateway under
    # benchmark load would drown the terminal.
    def log_message(self, format: str, *args: object) -> None:  # noqa: A002
        pass

    # ------------------------------------------------------------------ #
    def _send_json(self, status: int, payload: Dict[str, object],
                   close: bool = False) -> None:
        body = json.dumps(payload, indent=2, default=str).encode("utf-8") + b"\n"
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if close:
            # The request body was left unread, so the connection cannot
            # carry another request.
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _query(self) -> Tuple[str, Dict[str, List[str]]]:
        parsed = urlsplit(self.path)
        return parsed.path, parse_qs(parsed.query)

    def do_GET(self) -> None:  # noqa: N802 - stdlib handler API
        path, query = self._query()
        job_id = self.server.api.sse_job_id("GET", path)
        if job_id is not None:
            self._serve_sse(job_id, query)
            return
        status, payload = self.server.api.dispatch("GET", path, query, b"")
        self._send_json(status, payload)

    def do_POST(self) -> None:  # noqa: N802 - stdlib handler API
        path, query = self._query()
        raw_length = self.headers.get("Content-Length") or "0"
        try:
            length = int(raw_length)
        except ValueError:
            length = -1
        if length < 0:
            self._send_json(400, {"error": f"bad Content-Length {raw_length!r}",
                                  "code": "bad_request"}, close=True)
            return
        if length > MAX_BODY_BYTES:
            self._send_json(413, {
                "error": f"request body of {length} bytes exceeds the "
                         f"{MAX_BODY_BYTES}-byte limit",
                "code": "payload_too_large"}, close=True)
            return
        body = self.rfile.read(length) if length > 0 else b""
        status, payload = self.server.api.dispatch("POST", path, query, body)
        self._send_json(status, payload)

    # ------------------------------------------------------------------ #
    # Server-sent events
    # ------------------------------------------------------------------ #
    def _write_event(self, event: JobEvent) -> None:
        data = json.dumps(event.as_dict(), separators=(",", ":"), default=str)
        frame = f"id: {event.seq}\nevent: {event.kind}\ndata: {data}\n\n"
        self.wfile.write(frame.encode("utf-8"))
        self.wfile.flush()

    def _serve_sse(self, job_id: str, query: Dict[str, List[str]]) -> None:
        driver = self.server.driver
        last_raw = self.headers.get("Last-Event-ID") or (
            query.get("since") or [""])[0]
        try:
            last = max(0, int(last_raw)) if last_raw else 0
        except ValueError:
            self._send_json(400, {"error": f"bad Last-Event-ID {last_raw!r}",
                                  "code": "bad_request"})
            return
        # Read the counter before the feed: an event appended after this
        # read moves it, so the wait below cannot sleep past that event.
        seen = driver.bus.published
        try:
            events = driver.events_since(job_id, last)
        except UnknownJobError as exc:
            status, payload = error_response(exc)
            self._send_json(status, payload)
            return
        self.server.api.count_request("GET /v1/jobs/{id}/events")
        self.send_response(200)
        self.send_header("Content-Type", "text/event-stream")
        self.send_header("Cache-Control", "no-cache")
        self.send_header("Connection", "close")
        self.close_connection = True
        try:
            self.end_headers()
            self.wfile.flush()  # a quiet live stream still answers at once
            while True:
                for event in events:
                    self._write_event(event)
                    if event.is_terminal:
                        return
                    last = event.seq
                now = driver.bus.wait(seen, _SSE_POLL_S)
                if driver.bus.closed:
                    return
                if now == seen:
                    # Comment frame: keeps proxies and clients from
                    # timing out an intentionally quiet stream.
                    self.wfile.write(b": keepalive\n\n")
                    self.wfile.flush()
                seen, events = now, driver.events_since(job_id, last)
        except (BrokenPipeError, ConnectionResetError):
            return


class Gateway:
    """One bound HTTP gateway: server + driver + bus, started together."""

    def __init__(
        self,
        service: Optional[OcelotService] = None,
        config: Optional[OcelotConfig] = None,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.service = service or OcelotService(config or OcelotConfig())
        self.driver = GatewayDriver(self.service)
        self.api = GatewayAPI(self.driver)
        self._httpd = _GatewayHTTPServer((host, port), _Handler)
        self._httpd.api = self.api
        self._httpd.driver = self.driver
        self._server_thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------ #
    @property
    def host(self) -> str:
        """Bound interface."""
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        """Bound port (the OS-assigned one when constructed with 0)."""
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        """Base URL of the running gateway."""
        return f"http://{self.host}:{self.port}"

    @property
    def bus(self):
        """The wake-up signal SSE streams and ``/wait`` park on."""
        return self.driver.bus

    # ------------------------------------------------------------------ #
    def start(self) -> "Gateway":
        """Start the driver thread and the HTTP accept loop."""
        self.driver.start()
        if self._server_thread is None or not self._server_thread.is_alive():
            self._server_thread = threading.Thread(
                target=self._httpd.serve_forever,
                kwargs={"poll_interval": 0.1},
                name="ocelot-gateway-http",
                daemon=True,
            )
            self._server_thread.start()
        return self

    def stop(self) -> None:
        """Stop accepting requests, then stop the scheduler driver."""
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._server_thread is not None:
            self._server_thread.join(timeout=5.0)
            self._server_thread = None
        self.driver.stop()

    def serve_forever(self) -> None:
        """Run the accept loop in the calling thread (the CLI path)."""
        self.driver.start()
        try:
            self._httpd.serve_forever(poll_interval=0.1)
        finally:
            self._httpd.server_close()
            self.driver.stop()

    def __enter__(self) -> "Gateway":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()


def create_gateway(
    config: Optional[OcelotConfig] = None,
    host: str = "127.0.0.1",
    port: int = 0,
    service: Optional[OcelotService] = None,
) -> Gateway:
    """Build (but do not start) a gateway; ``port=0`` picks a free port."""
    return Gateway(service=service, config=config, host=host, port=port)
