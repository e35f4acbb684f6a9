"""Pure helpers behind the benchmark's figures: spans, self time, interval
unions and medians.  Nothing here imports qflab or numpy, so the logic is
tested on synthetic inputs (see test_perfbench.py).
"""

import statistics
from dataclasses import dataclass, field


@dataclass
class Span:
    """One traced call: ``parent`` is the index of the enclosing span or None.

    ``request`` numbers the CLI invocation the call belongs to; ``peak`` is the
    traced-allocation high-water mark of the call in bytes, above what was
    allocated when it started.
    """

    name: str
    layer: str
    start: float
    end: float = 0.0
    parent: int | None = None
    request: int = 0
    peak: int = 0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def union_length(intervals) -> float:
    """Total length covered by half-open intervals ``(lo, hi)``; overlaps count once."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its direct children cover."""
    children = [[] for _ in spans]
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = []
    for s, kids in zip(spans, children):
        clipped = [(max(lo, s.start), min(hi, s.end)) for lo, hi in kids]
        out.append(s.duration - union_length(clipped))
    return out


def outermost(spans, names) -> list[int]:
    """Indices of spans named in ``names`` that have no ancestor named in ``names``."""
    names = set(names)
    out = []
    for i, s in enumerate(spans):
        if s.name not in names:
            continue
        p = s.parent
        while p is not None and spans[p].name not in names:
            p = spans[p].parent
        if p is None:
            out.append(i)
    return out


def under(spans, i: int, names) -> bool:
    """True when span ``i`` has an ancestor named in ``names``."""
    p = spans[i].parent
    while p is not None:
        if spans[p].name in names:
            return True
        p = spans[p].parent
    return False


def summary(values) -> dict:
    """Median of the samples, with their count and quartiles."""
    values = sorted(values)
    if not values:
        raise ValueError("no samples")
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "samples": len(values)}
