"""Pub/sub bridge between job event feeds and live gateway clients.

Jobs append :class:`~repro.service.events.JobEvent` records to their
own feeds as the scheduler steps them; HTTP clients want those events
*pushed* as they happen.  The :class:`EventBus` sits in between: the
gateway driver publishes every newly-emitted event exactly once, and
each live client (an SSE stream, a test harness) holds a
:class:`Subscription` — a **bounded** per-subscriber queue, so one slow
client can never make the scheduler thread block or hold memory for
the whole fleet.

Overflow policy is drop-oldest: a full subscriber queue loses its
oldest event and the subscription counts the gap.  Consumers recover
losslessly because every event carries a per-job monotonic ``seq`` —
the SSE handler notices the gap (``seq`` jumped) and backfills from
the job's authoritative feed, which is exactly the ``Last-Event-ID``
resume path reused mid-stream.
"""

from __future__ import annotations

import queue
import threading
from typing import Dict, List, Optional

from ..service.events import JobEvent

__all__ = ["EventBus", "Subscription"]

#: Sentinel delivered to subscribers when the bus shuts down.
CLOSED = object()


class Subscription:
    """One subscriber's bounded event queue (create via ``EventBus.subscribe``)."""

    def __init__(self, bus: "EventBus", job_id: Optional[str], maxsize: int) -> None:
        self._bus = bus
        #: Restrict delivery to one job's feed (``None`` = all jobs).
        self.job_id = job_id
        self.queue: "queue.Queue[object]" = queue.Queue(maxsize=max(1, maxsize))
        #: Events lost to overflow (consumers backfill from the feed).
        self.dropped = 0
        self.closed = False

    def matches(self, event: JobEvent) -> bool:
        """Whether this subscription wants ``event``."""
        return self.job_id is None or event.job_id == self.job_id

    def get(self, timeout: Optional[float] = None) -> Optional[object]:
        """Next event, ``CLOSED`` on shutdown, or ``None`` on timeout."""
        try:
            return self.queue.get(timeout=timeout)
        except queue.Empty:
            return None

    def cancel(self) -> None:
        """Detach from the bus (idempotent)."""
        self._bus.unsubscribe(self)


class EventBus:
    """Fan job events out to bounded per-subscriber queues."""

    def __init__(self, default_maxsize: int = 1024) -> None:
        self._default_maxsize = default_maxsize
        self._lock = threading.Lock()
        self._subscribers: List[Subscription] = []
        self._closed = False
        #: Totals for ``/metricsz``.
        self.published = 0
        self.dropped = 0

    # ------------------------------------------------------------------ #
    def subscribe(self, job_id: Optional[str] = None,
                  maxsize: Optional[int] = None) -> Subscription:
        """Register a subscriber (optionally scoped to one job's feed)."""
        sub = Subscription(self, job_id, maxsize or self._default_maxsize)
        with self._lock:
            if self._closed:
                sub.closed = True
                sub.queue.put(CLOSED)
            else:
                self._subscribers.append(sub)
        return sub

    def unsubscribe(self, sub: Subscription) -> None:
        """Remove a subscriber; its queue receives no further events."""
        with self._lock:
            sub.closed = True
            try:
                self._subscribers.remove(sub)
            except ValueError:
                pass

    # ------------------------------------------------------------------ #
    def publish(self, event: JobEvent) -> None:
        """Deliver one event to every matching subscriber, never blocking.

        A full queue drops its oldest entry to make room — the slow
        consumer pays with a backfill, not the publisher with a stall.
        """
        with self._lock:
            self.published += 1
            for sub in self._subscribers:
                if not sub.matches(event):
                    continue
                while True:
                    try:
                        sub.queue.put_nowait(event)
                        break
                    except queue.Full:
                        try:
                            sub.queue.get_nowait()
                            sub.dropped += 1
                            self.dropped += 1
                        except queue.Empty:  # raced with the consumer
                            continue

    def publish_all(self, events: List[JobEvent]) -> None:
        """Publish a batch in feed order."""
        for event in events:
            self.publish(event)

    def close(self) -> None:
        """Shut down: every subscriber's next read returns ``CLOSED``."""
        with self._lock:
            self._closed = True
            subscribers, self._subscribers = self._subscribers, []
            for sub in subscribers:
                sub.closed = True
                try:
                    sub.queue.put_nowait(CLOSED)
                except queue.Full:
                    try:
                        sub.queue.get_nowait()
                    except queue.Empty:
                        pass
                    try:
                        sub.queue.put_nowait(CLOSED)
                    except queue.Full:
                        pass

    def describe(self) -> Dict[str, object]:
        """Metrics snapshot for ``/metricsz``."""
        with self._lock:
            return {
                "subscribers": len(self._subscribers),
                "published": self.published,
                "dropped": self.dropped,
            }
