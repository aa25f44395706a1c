"""The benchmark's span primitive: timed, nested, recorded from outside.

Nothing under ``src/`` knows about tracing.  A :class:`Tracer` replaces
*public* entry points of each layer with timing shims (:meth:`Tracer.wrap`)
and records one :class:`Span` per call: name, layer, start, end, the span
that caused it, the job it belongs to, and byte/item counts taken at the
same boundary.  Spans stay in memory and are written out once, at exit.

A layer's *self time* is its span's duration minus the part of that
interval its child spans cover (the union of their intervals, so children
running concurrently on block-worker threads are not counted twice).
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = ["Span", "Tracer", "covered", "self_time", "children_of"]

#: ``counts`` callbacks receive the call's positional args, keyword args
#: and return value and report what crossed the boundary.
CountFn = Callable[[tuple, dict, Any], Dict[str, Any]]


class Span:
    """One timed call.  Used as a context manager by :meth:`Tracer.span`."""

    __slots__ = ("id", "name", "layer", "start", "end", "parent", "job",
                 "thread", "counts", "_tracer")

    def __init__(self, tracer: "Tracer", name: str, layer: str,
                 counts: Optional[Dict[str, Any]]) -> None:
        self._tracer = tracer
        self.id = next(tracer._ids)
        self.name = name
        self.layer = layer
        self.counts = counts
        self.start = 0.0
        self.end = 0.0
        self.parent: Optional[int] = None
        self.job: Any = None
        self.thread = threading.get_ident()

    @property
    def duration(self) -> float:
        return self.end - self.start

    def __enter__(self) -> "Span":
        tracer = self._tracer
        stack = tracer._stack()
        if stack:
            self.parent = stack[-1].id
        elif tracer.adopt_orphans and self.thread != tracer._home_thread:
            # A block-pool worker has no stack of its own: the call was
            # caused by whatever the driving thread is blocked in.
            home = tracer._home_stack[-1:]
            if home:
                self.parent = home[0].id
        self.job = tracer.job
        stack.append(self)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.end = time.perf_counter()
        self._tracer._stack().pop()
        self._tracer.spans.append(self)

    #: Column order of :meth:`as_row` (and of the dumped trace file).
    COLUMNS = ("id", "name", "layer", "start", "end", "parent", "job", "thread", "counts")

    def as_row(self) -> List[Any]:
        return [self.id, self.name, self.layer, self.start, self.end, self.parent,
                self.job, self.thread, self.counts or {}]


class Tracer:
    """Records spans; owns the shims it installs.

    ``adopt_orphans`` suits workloads with one job in flight: a span
    opened on a thread with an empty stack (a block-pool worker) is
    parented to the innermost open span of the thread that created the
    tracer.  Leave it off when several independent threads do traced work
    at once (the gateway), where such a guess would be wrong.
    """

    def __init__(self, adopt_orphans: bool = False) -> None:
        self.spans: List[Span] = []
        self.enabled = False
        self.adopt_orphans = adopt_orphans
        #: Job id stamped on spans opened while it is set (the in-process
        #: workloads keep one job in flight and set it around each one).
        self.job: Any = None
        self._ids = itertools.count()
        self._local = threading.local()
        self._home_thread = threading.get_ident()
        self._home_stack: List[Span] = self._stack()

    # ------------------------------------------------------------------ #
    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # ------------------------------------------------------------------ #
    def span(self, name: str, layer: str, **counts: Any) -> Span:
        """Context manager timing one region of the benchmark's own code."""
        return Span(self, name, layer, counts or None)

    def wrap(self, owner: Any, attr: str, layer: str, name: Optional[str] = None,
             counts: Optional[CountFn] = None) -> None:
        """Replace ``owner.attr`` with a shim that records a span per call.

        ``owner`` is a class (methods, static and class methods alike) or
        the module that *looks the function up* — a function imported by
        name into another module must be wrapped on that module.
        """
        raw = vars(owner)[attr]
        kind = type(raw) if isinstance(raw, (staticmethod, classmethod)) else None
        original = raw.__func__ if kind else raw
        label = name or f"{owner.__name__.rsplit('.', 1)[-1]}.{attr}"
        tracer = self

        def shim(*args: Any, **kwargs: Any) -> Any:
            if not tracer.enabled:
                return original(*args, **kwargs)
            with Span(tracer, label, layer, None) as span:
                result = original(*args, **kwargs)
                if counts is not None:
                    span.counts = counts(args, kwargs, result)
            return result

        shim.__name__ = getattr(original, "__name__", attr)
        shim.__doc__ = getattr(original, "__doc__", None)
        shim.__wrapped__ = original  # type: ignore[attr-defined]
        setattr(owner, attr, kind(shim) if kind else shim)

    # ------------------------------------------------------------------ #
    def dump(self, path: str, **header: Any) -> None:
        """Write every recorded span (plus ``header``) as one JSON file."""
        payload = dict(header)
        payload["columns"] = list(Span.COLUMNS)
        payload["spans"] = [span.as_row() for span in self.spans]
        with open(path, "w") as handle:
            json.dump(payload, handle)


# --------------------------------------------------------------------- #
# Analysis helpers
# --------------------------------------------------------------------- #
def covered(intervals: Iterable[Tuple[float, float]],
            lo: float = float("-inf"), hi: float = float("inf")) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start = max(start, reach)
        end = min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def children_of(spans: Sequence[Span]) -> Dict[Optional[int], List[Span]]:
    """Index spans by the id of the span that caused them."""
    index: Dict[Optional[int], List[Span]] = {}
    for span in spans:
        index.setdefault(span.parent, []).append(span)
    return index


def self_time(span: Span, children: Dict[Optional[int], List[Span]]) -> float:
    """``span``'s duration minus the part its direct children cover."""
    kids = children.get(span.id, ())
    if not kids:
        return span.duration
    return span.duration - covered(
        ((kid.start, kid.end) for kid in kids), span.start, span.end
    )
