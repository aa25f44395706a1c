"""The gateway's one wake-up signal: a published-event counter.

Jobs append :class:`~repro.service.events.JobEvent` records to their
own feeds, numbered by a contiguous per-job ``seq``; that feed is the
only event buffer the gateway has.  The :class:`EventBus` holds no
events at all.  It counts what the scheduler publishes and wakes
everyone parked on one :class:`threading.Condition`: the SSE streams,
``/wait`` requests and the driver's idle stepper.  A woken reader reads
the job's feed after the ``seq`` it has seen, so no subscriber keeps
memory of its own and none can fall behind and lose an event.

A reader reads :attr:`EventBus.published` *before* it reads the feed:
an event appended after that read moves the counter, so the next
:meth:`EventBus.wait` returns at once instead of sleeping past it.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional

from ..service.events import JobEvent

__all__ = ["EventBus"]


class EventBus:
    """Count published events and wake every waiter on each one."""

    def __init__(self) -> None:
        self._changed = threading.Condition()
        #: Set by :meth:`close`; every wait returns at once from then on.
        self.closed = False
        #: Events published so far (also ``/metricsz``'s ``bus.published``).
        self.published = 0

    def publish(self, event: JobEvent) -> None:
        """Count one event (already in its job's feed) and wake the waiters."""
        with self._changed:
            self.published += 1
            self._changed.notify_all()

    def publish_all(self, events: List[JobEvent]) -> None:
        """Publish a batch in feed order."""
        for event in events:
            self.publish(event)

    def wait(self, seen: int, timeout: Optional[float] = None) -> int:
        """Block until the counter moves past ``seen``, the bus closes, or
        ``timeout`` ends; return the counter."""
        with self._changed:
            self._changed.wait_for(lambda: self.published != seen or self.closed,
                                   timeout)
            return self.published

    def close(self) -> None:
        """Shut down: release every waiter now and every later one at once."""
        with self._changed:
            self.closed = True
            self._changed.notify_all()

    def describe(self) -> Dict[str, object]:
        """Metrics snapshot for ``/metricsz`` (nothing is buffered, so
        nothing is ever dropped)."""
        return {"published": self.published, "dropped": 0}
