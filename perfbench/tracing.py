"""Span recording for the benchmark's traced mode.

Wrappers installed from outside the package record one span per call: its
name, the span that was open when it started (its parent), and its start and
end on the ``perf_counter_ns`` clock.  Spans stay in flat arrays until the run
ends.  Calls are synchronous and single-threaded, so the children of a span
never overlap, and a span's self time is its duration minus the durations of
its direct children.
"""

from __future__ import annotations

import functools
import statistics
import time
from array import array
from contextlib import contextmanager
from typing import Callable, Iterator, Sequence

NO_PARENT = -1


class Tracer:
    """Flat span store plus the stack of spans that are open right now."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self._open: list[int] = []

    def __len__(self) -> int:
        return len(self.start)

    def _intern(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _begin(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._open[-1] if self._open else NO_PARENT)
        self.start.append(0)
        self.end.append(0)
        self._open.append(idx)
        return idx

    @contextmanager
    def span(self, name: str) -> Iterator[int]:
        """Record the body of a ``with`` block as one span; yields its index."""
        idx = self._begin(self._intern(name))
        t0 = time.perf_counter_ns()
        try:
            yield idx
        finally:
            t1 = time.perf_counter_ns()
            self._open.pop()
            self.start[idx] = t0
            self.end[idx] = t1

    def wrap(
        self,
        name: str,
        fn: Callable,
        observe: Callable[[int, tuple, object], None] | None = None,
    ) -> Callable:
        """``fn`` recording a span per call.  ``observe(span, args, result)``
        runs after a call returns, outside the span's clock readings."""
        nid = self._intern(name)
        begin, open_spans = self._begin, self._open
        start, end, clock = self.start, self.end, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = begin(nid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                open_spans.pop()
                start[idx] = t0
                end[idx] = t1
            if observe is not None:
                observe(idx, args, result)
            return result

        return traced


def self_times(
    parent: Sequence[int], start: Sequence[int], end: Sequence[int]
) -> list[int]:
    """Per span: its duration minus the summed durations of its children."""
    out = [e - s for s, e in zip(start, end)]
    for i, p in enumerate(parent):
        if p != NO_PARENT:
            out[p] -= end[i] - start[i]
    return out


def contexts(tracer: Tracer, markers: Sequence[str]) -> list[str | None]:
    """For every span, the name of its nearest ancestor (or itself) whose
    name is in ``markers``; None when there is none.  Parents are recorded
    before their children, so one forward pass suffices."""
    marker_ids = {tracer._name_ids[m]: m for m in markers if m in tracer._name_ids}
    ctx: list[str | None] = [None] * len(tracer)
    for i, nid in enumerate(tracer.name):
        own = marker_ids.get(nid)
        p = tracer.parent[i]
        ctx[i] = own if own is not None else (ctx[p] if p != NO_PARENT else None)
    return ctx


@contextmanager
def patched(targets: Sequence[tuple[object, str, Callable]]) -> Iterator[None]:
    """Replace ``owner.attr`` by ``make(original)`` for each target and put the
    originals back on exit.  A target that does not exist raises
    ``AttributeError``, so a renamed function fails the run loudly."""
    saved: list[tuple[object, str, object]] = []
    try:
        for owner, attr, make in targets:
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, make(original))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def p50(values: Sequence[float]) -> float:
    """Median, or 0.0 for a layer that made no calls."""
    return float(statistics.median(values)) if values else 0.0


def mean(values: Sequence[float]) -> float:
    return float(statistics.fmean(values)) if values else 0.0
