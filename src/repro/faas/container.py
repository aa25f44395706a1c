"""Container warm-up model.

FuncX packages functions into containers on each endpoint; the first
invocation pays a cold-start (image pull + instantiation), later calls
hit a warm container.  The pool keeps per-(endpoint, container) warmth
state and reports the start-up cost the executor should charge.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Set

__all__ = ["ContainerPool"]


@dataclass
class ContainerPool:
    """Tracks which containers are warm on an endpoint."""

    cold_start_s: float = 5.0
    warm_start_s: float = 0.05
    max_warm: int = 16
    _warm: Set[str] = field(default_factory=set)
    _usage: Dict[str, int] = field(default_factory=dict)

    def startup_cost(self, container: str) -> float:
        """Start-up cost of launching a function in ``container``.

        Calling this marks the container warm (it was just used), evicting
        the least-used container when the warm pool is full.
        """
        self._usage[container] = self._usage.get(container, 0) + 1
        if container in self._warm:
            return self.warm_start_s
        if len(self._warm) >= self.max_warm:
            coldest = min(self._warm, key=lambda c: self._usage.get(c, 0))
            self._warm.discard(coldest)
        self._warm.add(container)
        return self.cold_start_s

    def is_warm(self, container: str) -> bool:
        """Whether a container is currently warm."""
        return container in self._warm

    def invalidate(self, container: str) -> None:
        """Force a container cold (e.g. endpoint restart)."""
        self._warm.discard(container)
