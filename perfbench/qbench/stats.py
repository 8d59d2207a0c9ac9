"""Order statistics used by every workload."""

from __future__ import annotations

#: A percentile is only reported when at least this many samples lie
#: beyond it; otherwise the next lower candidate is used.
MIN_BEYOND = 10

#: Tail candidates, highest first.  p50 is the floor: a run too short
#: for any tail reports its median as the tail.
TAIL_CANDIDATES = (95, 90, 75, 50)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile ``q`` (0-100) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def median(values) -> float:
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of an empty sample")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def tail_percentile(count: int) -> int:
    """The highest tail candidate with ``MIN_BEYOND`` samples beyond it."""
    for q in TAIL_CANDIDATES:
        if count * (100 - q) / 100.0 >= MIN_BEYOND:
            return q
    return TAIL_CANDIDATES[-1]


def latency_summary(seconds) -> dict:
    """p50 and the supported tail of a latency sample, in ms."""
    values = [value * 1e3 for value in seconds]
    q = tail_percentile(len(values))
    return {
        "count": len(values),
        "p50_ms": median(values),
        "tail_q": q,
        "tail_ms": percentile(values, q) if q != 50 else median(values),
    }
