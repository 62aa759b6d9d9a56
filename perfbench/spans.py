"""In-memory spans for the traced benchmark run.

A span is one timed call into a layer: its name, start and end on the
``time.perf_counter`` clock, the span that contains it, and the step id
that every span of one training step shares.  Spans stay in memory and
are written out once, when the run ends.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import asdict, dataclass
from typing import Dict, Iterable, List, Optional


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    step: Optional[int]
    rank: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanLog:
    """One rank's span recorder.

    ``enabled`` may be flipped between steps; while it is off ``span``
    records nothing and costs one attribute test.
    """

    def __init__(self, rank: int, enabled: bool = True):
        self.rank = rank
        self.enabled = enabled
        self.spans: List[Span] = []
        self._open: List[int] = []

    @contextlib.contextmanager
    def span(self, name: str, step: Optional[int] = None, start: Optional[float] = None):
        """Time the block; ``start`` back-dates the span to an earlier
        ``perf_counter`` reading (e.g. when the ranks were launched)."""
        if not self.enabled:
            yield
            return
        parent = self._open[-1] if self._open else None
        if step is None and parent is not None:
            step = self.spans[parent].step
        index = len(self.spans)
        begin = time.perf_counter() if start is None else start
        self.spans.append(Span(index, name, begin, 0.0, parent, step, self.rank))
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index].end = time.perf_counter()


def _covered(start: float, end: float, intervals: Iterable[tuple]) -> float:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    clipped = sorted(
        (max(a, start), min(b, end)) for a, b in intervals if min(b, end) > max(a, start)
    )
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Each span's duration minus the part of it its children cover.

    The covered part is the union of the children clipped to the span,
    so children that overlap each other are not subtracted twice.
    """
    children: Dict[int, List[tuple]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return {
        span.id: span.duration - _covered(span.start, span.end, children.get(span.id, ()))
        for span in spans
    }


def durations(spans: Iterable[Span], name: str) -> List[float]:
    return [s.duration for s in spans if s.name == name]


def as_dicts(spans: Iterable[Span]) -> List[dict]:
    return [asdict(s) for s in spans]
