"""The simulated clock shared by the transfer/FaaS simulation.

The simulation substrates (WAN transfer, batch scheduler, parallel
compression cost model) compute durations instead of sleeping, which
keeps end-to-end "transfers" of terabyte-scale datasets instantaneous in
wall-clock terms while preserving the timing structure the paper
analyses (compression time vs transfer time vs waiting time).  Only the
multi-job scheduler moves the clock: it places those durations on one
timeline and syncs the clock to its makespan.
"""

from __future__ import annotations

__all__ = ["SimulationClock"]


class SimulationClock:
    """A manually advanced clock measured in seconds."""

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def advance(self, seconds: float) -> float:
        """Advance the clock by ``seconds`` (must be non-negative)."""
        if seconds < 0:
            raise ValueError(f"cannot advance clock by negative time {seconds}")
        self._now += float(seconds)
        return self._now

    def advance_to(self, timestamp: float) -> float:
        """Advance the clock to ``timestamp`` if it is in the future."""
        if timestamp > self._now:
            self._now = float(timestamp)
        return self._now

    def reset(self, start: float = 0.0) -> None:
        """Rewind the clock to ``start``."""
        self._now = float(start)
