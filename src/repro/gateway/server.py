"""The network face of the gateway: one thread, one ``selectors`` loop.

One thread owns the listening socket, every connection and the
scheduler (threads per request only handed the GIL around).  A turn of
:meth:`GatewayDriver.run` steps the scheduler one phase under the driver
lock; :meth:`Gateway._turn` then accepts and reads the ready sockets
without blocking, sends each complete request through the unchanged
:class:`~repro.gateway.app.GatewayAPI` routes (a bad or over-cap
``Content-Length`` is 400 / 413 before any body is read) and answers
the ``/wait`` and SSE connections parked on jobs that moved.  An idle
turn blocks in ``select`` for up to the driver's idle wait; a submit or
``stop()`` on another thread pokes the bus's socketpair to wake it.
Writes go through a per-connection buffer flushed on ``EVENT_WRITE``, so
no slow reader or half-sent request blocks the loop.  The one thread
gives up nothing the driver lock did not already serialise: every route
but ``/healthz`` waited for the step in flight.

A parked ``/wait`` holds no thread: once its job is terminal, its
timeout passes or the bus closes, the route runs with ``timeout=0`` and
answers (200, or 408 ``timed_out``).  An SSE stream writes ``id: <seq>``,
``event: <kind>``, ``data: <JSON>`` and a blank line per event after the
``Last-Event-ID`` (or ``?since=``) sent: its job's feed on each turn the
bus counter moved, a keepalive comment when quiet for ``_SSE_POLL_S``.
It keeps no events, so a client that never reads loses none, and it
closes after the terminal event or when the bus closes.
"""

from __future__ import annotations

import contextlib
import json
import selectors
import socket
import time
import traceback
from http import HTTPStatus
from typing import Dict, List, Optional, Set, Tuple
from urllib.parse import parse_qs, urlsplit

from ..core.config import OcelotConfig
from ..service import OcelotService
from .app import MAX_BODY_BYTES, GatewayAPI, _wait_timeout, error_response
from .bus import EventBus
from .driver import GatewayDriver, UnknownJobError

__all__ = ["Gateway", "create_gateway"]

#: Longest a live SSE stream stays quiet before a keepalive comment.
_SSE_POLL_S = 0.25
#: Most unserved bytes a connection may hold: a full body and its head.
_MAX_HELD_BYTES = MAX_BODY_BYTES + (1 << 16)
_READ, _WRITE = selectors.EVENT_READ, selectors.EVENT_WRITE
Query = Dict[str, List[str]]


class _Conn:
    """A client socket: bytes unserved, bytes unsent, what it is parked on."""

    def __init__(self, sock: socket.socket) -> None:
        self.sock, self.inbuf, self.out, self.mask = sock, bytearray(), bytearray(), _READ
        self.keep_alive, self.closing = True, False  # closing: close once ``out`` drains
        self.parked = self.job_id = self.path = ""  # parked: "wait" or "events"
        # A wait's deadline or a stream's next keepalive; a stream's last seq.
        self.due, self.last, self.query = 0.0, 0, {}


class Gateway:
    """One bound HTTP gateway: listening socket, driver and bus, run by one loop."""

    def __init__(self, service: Optional[OcelotService] = None,
                 config: Optional[OcelotConfig] = None, host: str = "127.0.0.1",
                 port: int = 0) -> None:
        self.service = service or OcelotService(config or OcelotConfig())
        self.driver = GatewayDriver(self.service)
        self.api = GatewayAPI(self.driver)
        # A backlog of 5 overflows when a dozen clients connect at once (an
        # SSE fan-out); each dropped SYN costs its client a 1 s retransmit.
        self._listener = socket.create_server((host, port), backlog=128)
        self.host, self.port = self._listener.getsockname()[:2]
        self._wake, self._poke = socket.socketpair()
        self._selector = selectors.DefaultSelector()
        for sock in (self._listener, self._wake, self._poke):
            sock.setblocking(False)
        self._selector.register(self._listener, _READ)
        self._selector.register(self._wake, _READ)
        self._parked: Set[_Conn] = set()
        self._seen = -1  # bus counter at the last look at the parked

    @property
    def url(self) -> str:
        """Base URL of the running gateway."""
        return f"http://{self.host}:{self.port}"

    @property
    def bus(self) -> EventBus:
        """The wake-up signal parked ``/wait`` and SSE connections follow."""
        return self.driver.bus

    def start(self) -> "Gateway":
        """Run the loop on the driver's thread."""
        self.driver.start(self._serve)
        return self

    def stop(self) -> None:
        """Close the bus: the loop answers what is parked, closes every
        socket and ends; the driver joins it."""
        self.driver.stop()
        self._close_all()  # a gateway that never started holds its sockets

    def serve_forever(self) -> None:
        """Run the loop in the calling thread (the CLI path)."""
        try:
            self._serve()
        finally:
            self.driver.stop()

    def __enter__(self) -> "Gateway":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    def _serve(self) -> None:
        self.bus.wake_on(self._poke)
        try:
            self.driver.run(self._turn)
        finally:
            self._close_all()

    def _close_all(self) -> None:
        for key in list((self._selector.get_map() or {}).values()):  # None once closed
            if key.data:  # a client connection
                self._close(key.data)
        for closable in (self._listener, self._wake, self._poke, self._selector):
            closable.close()

    def _turn(self, timeout: float) -> None:
        """Serve the ready sockets (waiting up to ``timeout``), then the parked."""
        for key, mask in self._selector.select(timeout):
            if key.fileobj is self._listener:
                self._accept()
            elif key.fileobj is self._wake:
                with contextlib.suppress(BlockingIOError):
                    self._wake.recv(1 << 16)  # pokes: their count means nothing
            elif key.data.sock.fileno() >= 0:  # not closed earlier this turn
                if mask & _WRITE:
                    self._flush(key.data)
                if mask & _READ:
                    self._read(key.data)
                self._serve_requests(key.data)
        self._answer_parked()

    def _accept(self) -> None:
        while True:
            try:
                sock, _ = self._listener.accept()
            except OSError:  # nobody left in the backlog (or out of fds)
                return
            sock.setblocking(False)
            # Nagle off: no response waits out the peer's delayed-ACK timer.
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._selector.register(sock, _READ, _Conn(sock))

    def _read(self, conn: _Conn) -> None:
        try:
            data = conn.sock.recv(1 << 16)
        except BlockingIOError:
            return
        except OSError:
            data = b""
        if not data or len(conn.inbuf) > _MAX_HELD_BYTES:
            self._close(conn)  # gone, or pipelining more than it reads
        else:
            conn.inbuf += data

    def _serve_requests(self, conn: _Conn) -> None:
        """Serve complete requests in order while nothing is parked or unsent."""
        try:
            while conn.sock.fileno() >= 0 and not (conn.parked or conn.out or conn.closing) \
                    and (request := self._next_request(conn)) is not None:
                self._route(conn, *request)
        except Exception:  # noqa: BLE001 - one connection, not the loop
            traceback.print_exc()
            self._close(conn)

    def _next_request(self, conn: _Conn) -> Optional[Tuple[str, str, Dict[str, str], bytes]]:
        end = conn.inbuf.find(b"\r\n\r\n")
        if end < 0:
            return None
        line, *lines = conn.inbuf[:end].decode("latin-1").split("\r\n")
        headers = {name.strip().lower(): value.strip()
                   for name, _, value in (header.partition(":") for header in lines)}
        parts = line.split()
        raw_length = headers.get("content-length", "0")
        length = int(raw_length) if raw_length.isdecimal() else -1
        if len(parts) != 3 or not parts[2].startswith("HTTP/") or length < 0:
            what = f"Content-Length {raw_length!r}" if length < 0 else f"request {line!r}"
            self._reply(conn, 400, {"error": f"bad {what}", "code": "bad_request"},
                        close=True)
            return None
        if length > MAX_BODY_BYTES:
            self._reply(conn, 413, {"error": f"request body of {length} bytes exceeds the "
                                             f"{MAX_BODY_BYTES}-byte limit",
                                    "code": "payload_too_large"}, close=True)
            return None
        if len(conn.inbuf) < end + 4 + length:
            if len(conn.inbuf) == end + 4 and headers.get("expect", "").lower() == "100-continue":
                self._send(conn, b"HTTP/1.1 100 Continue\r\n\r\n")
            return None
        body = bytes(conn.inbuf[end + 4:end + 4 + length])
        del conn.inbuf[:end + 4 + length]
        token = headers.get("connection", "").lower()
        conn.keep_alive = token == "keep-alive" or (parts[2] == "HTTP/1.1" and token != "close")
        return parts[0], parts[1], headers, body

    def _route(self, conn: _Conn, method: str, target: str,
               headers: Dict[str, str], body: bytes) -> None:
        url = urlsplit(target)
        path, query = url.path, parse_qs(url.query)
        parts = [part for part in path.split("/") if part]
        stream_id = self.api.sse_job_id(method, path)
        if stream_id is not None:
            return self._open_stream(conn, stream_id, query, headers.get("last-event-id"))
        if method == "GET" and parts[:2] == ["v1", "jobs"] and parts[3:] == ["wait"]:
            with contextlib.suppress(ValueError):  # a bad timeout: the route's 400
                timeout = _wait_timeout((query.get("timeout") or [None])[0])
                conn.path, conn.query = path, query
                return self._park(conn, "wait", parts[2], time.monotonic() + timeout)
        self._reply(conn, *self.api.dispatch(method, path, query, body))

    def _open_stream(self, conn: _Conn, job_id: str, query: Query,
                     last_event_id: Optional[str]) -> None:
        last_raw = last_event_id or (query.get("since") or [""])[0]
        try:
            last = max(0, int(last_raw)) if last_raw else 0
            self.driver.done(job_id)  # raises for an unknown job
        except ValueError:
            return self._reply(conn, 400, {"error": f"bad Last-Event-ID {last_raw!r}",
                                           "code": "bad_request"})
        except UnknownJobError as exc:
            return self._reply(conn, *error_response(exc))
        self.api.count_request("GET /v1/jobs/{id}/events")
        self._send(conn, b"HTTP/1.1 200 OK\r\nContent-Type: text/event-stream\r\n"
                         b"Cache-Control: no-cache\r\nConnection: close\r\n\r\n")
        self._park(conn, "events", job_id, time.monotonic() + _SSE_POLL_S)
        conn.last = last

    def _park(self, conn: _Conn, kind: str, job_id: str, due: float) -> None:
        conn.parked, conn.job_id, conn.due = kind, job_id, due
        self._parked.add(conn)
        self._seen = -1  # the next look checks every parked connection

    def _answer_parked(self) -> None:
        now, closed, published = time.monotonic(), self.bus.closed, self.bus.published
        moved, self._seen = published != self._seen, published
        for conn in list(self._parked):
            if conn.parked == "events":
                self._stream(conn, now, moved, closed)
            elif closed or now >= conn.due or (moved and self._terminal(conn.job_id)):
                self._unpark(conn)
                query = {**conn.query, "timeout": ["0"]}
                self._reply(conn, *self.api.dispatch("GET", conn.path, query, b""))
                self._serve_requests(conn)

    def _terminal(self, job_id: str) -> bool:
        try:
            return self.driver.done(job_id)
        except UnknownJobError:  # the route answers it 404
            return True

    def _stream(self, conn: _Conn, now: float, moved: bool, closed: bool) -> None:
        frames = bytearray()
        for event in self.driver.events_since(conn.job_id, conn.last) if moved else ():
            data = json.dumps(event.as_dict(), separators=(",", ":"), default=str)
            frames += f"id: {event.seq}\nevent: {event.kind}\ndata: {data}\n\n".encode()
            conn.last = event.seq
            closed = closed or event.is_terminal
        if not frames and now >= conn.due:
            # A comment frame: no proxy or client times out a quiet stream.
            frames += b": keepalive\n\n"
        if frames:
            conn.due = now + _SSE_POLL_S
        if closed:
            self._unpark(conn)
            conn.closing = True
        self._send(conn, frames)

    def _unpark(self, conn: _Conn) -> None:
        conn.parked = ""
        self._parked.discard(conn)

    def _reply(self, conn: _Conn, status: int, payload: Dict[str, object],
               close: bool = False) -> None:
        body = json.dumps(payload, indent=2, default=str).encode("utf-8") + b"\n"
        conn.closing = close or not conn.keep_alive
        head = (f"HTTP/1.1 {status} {HTTPStatus(status).phrase}\r\n"
                f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n"
                + ("Connection: close\r\n" if conn.closing else "") + "\r\n")
        self._send(conn, head.encode("latin-1") + body)

    def _send(self, conn: _Conn, data: bytes) -> None:
        conn.out += data
        self._flush(conn)

    def _flush(self, conn: _Conn) -> None:
        """Send what the socket takes; watch EVENT_WRITE while any is left."""
        try:
            if conn.out:
                del conn.out[:conn.sock.send(conn.out)]
        except BlockingIOError:
            pass
        except OSError:  # the client went away before its response did
            conn.closing, conn.out = True, bytearray()
        if conn.closing and not conn.out:
            return self._close(conn)
        mask = _READ | _WRITE if conn.out else _READ
        if mask != conn.mask:
            conn.mask = mask
            self._selector.modify(conn.sock, mask, conn)

    def _close(self, conn: _Conn) -> None:
        self._unpark(conn)
        if conn.sock.fileno() >= 0:
            self._selector.unregister(conn.sock)
            conn.sock.close()


def create_gateway(config: Optional[OcelotConfig] = None, host: str = "127.0.0.1",
                   port: int = 0, service: Optional[OcelotService] = None) -> Gateway:
    """Build (but do not start) a gateway; ``port=0`` picks a free port."""
    return Gateway(service=service, config=config, host=host, port=port)
