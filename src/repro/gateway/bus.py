"""The gateway's one wake-up signal: a published-event counter.

Each job's append-only feed, numbered by a contiguous ``seq``, is the only
event buffer; the :class:`EventBus` holds none.  It counts what the
scheduler publishes and wakes whoever parks: threads in :meth:`wait` on one
:class:`threading.Condition`, and the gateway's loop, parked in ``select``,
by a one-byte poke on a socketpair (:meth:`wake_on`) from a publish or close
on another thread.  A reader reads :attr:`published` *before* its job's
feed: an event appended later moves the counter, so no wait sleeps past it.
"""

from __future__ import annotations

import socket
import threading
from typing import Dict, List, Optional

from ..service.events import JobEvent

__all__ = ["EventBus"]


class EventBus:
    """Count published events and wake every waiter on each one."""

    def __init__(self) -> None:
        self._changed = threading.Condition()
        self._poke: Optional[socket.socket] = None
        self._loop_thread = 0
        #: Set by :meth:`close`; every wait returns at once from then on.
        self.closed = False
        #: Events published so far (also ``/metricsz``'s ``bus.published``).
        self.published = 0

    def wake_on(self, poke: socket.socket) -> None:
        """Send ``poke`` a byte on each later publish or close from any thread
        but the caller (the loop, selecting on the pair's other end)."""
        self._poke, self._loop_thread = poke, threading.get_ident()

    def _wake(self) -> None:
        self._changed.notify_all()
        if self._poke is not None and threading.get_ident() != self._loop_thread:
            try:
                self._poke.send(b"\0")
            except OSError:  # full: a wake is already pending (or the loop is gone)
                pass

    def publish(self, event: JobEvent) -> None:
        """Count one event (already in its job's feed) and wake the waiters."""
        with self._changed:
            self.published += 1
            self._wake()

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
            self._wake()

    def describe(self) -> Dict[str, object]:
        """``/metricsz``'s snapshot (nothing is buffered, so nothing drops)."""
        return {"published": self.published, "dropped": 0}
