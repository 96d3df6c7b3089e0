"""In-memory span recorder and the arithmetic the trace report rests on.

A span is one call across a wrapped boundary: its name, the layer (module)
that owns it, start and end on one monotonic clock, and the span that was
open when it started (its parent).  Self time is a span's duration minus
the part of its interval that its children cover.  Nothing here knows about
expanderlab; see instrument.py for what gets wrapped.
"""

from __future__ import annotations

import functools
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Optional


@dataclass
class Span:
    id: int
    name: str
    layer: str
    start: float
    end: float = float("nan")
    parent: Optional[int] = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """One per traced pass.  Records only while `active` is set, so calls
    made by the benchmark's own correctness gates stay out of the trace."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.active = False
        self._stack: list[Span] = []

    def open(self, name: str, layer: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(id=len(self.spans), name=name, layer=layer,
                    start=self.clock(), parent=parent)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = self.clock()
        top = self._stack.pop()
        if top is not span:
            raise RuntimeError(f"span {span.name} closed out of order "
                               f"(innermost open span is {top.name})")

    def current(self) -> Optional[Span]:
        return self._stack[-1] if self._stack else None

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] += n


def wrap(tracer: Tracer, fn: Callable, name: str, layer: str,
         before: Optional[Callable] = None,
         after: Optional[Callable] = None) -> Callable:
    """Return fn recording a span per call while the tracer is active.

    before(tracer, args, kwargs) may return False to run the call without a
    span (a cache hit, say); after(tracer, span, args, kwargs, result)
    annotates the closed span.
    """
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not tracer.active or (
                before is not None and before(tracer, args, kwargs) is False):
            return fn(*args, **kwargs)
        span = tracer.open(name, layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(span)
        if after is not None:
            after(tracer, span, args, kwargs, result)
        return result

    return traced


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals
    (clipped to the span itself)."""
    kids: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            kids.setdefault(s.parent, []).append((s.start, s.end))
    out = {}
    for s in spans:
        covered, reach = 0.0, s.start
        for a, b in sorted(kids.get(s.id, ())):
            a, b = max(a, reach), min(b, s.end)
            if b > a:
                covered += b - a
                reach = b
        out[s.id] = s.duration - covered
    return out


def layer_self_times(spans: list[Span]) -> dict[str, float]:
    own = self_times(spans)
    out: dict[str, float] = {}
    for s in spans:
        out[s.layer] = out.get(s.layer, 0.0) + own[s.id]
    return out


def ancestors(span: Span, by_id: dict[int, Span]):
    """Yield the chain of parents, innermost first."""
    while span.parent is not None:
        span = by_id[span.parent]
        yield span


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolation percentile, q in [0, 100]; 0 for no values."""
    if not values:
        return 0.0
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)
