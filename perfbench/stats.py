"""Summary statistics for the benchmark: percentiles and span self time.

Percentiles use the nearest-rank rule on the sorted samples.  A timing
is reported as its median plus the highest percentile that still has at
least ``TAIL_MIN_BEYOND`` samples strictly above its rank, together with
the sample count, so a tail figure never rests on a handful of samples.
"""

from __future__ import annotations

import math

TAIL_MIN_BEYOND = 10
TAIL_CANDIDATES = (99.9, 99.0, 90.0, 50.0)


def percentile(values, p: float) -> float:
    """Nearest-rank percentile: the smallest sample with p% at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0 < p <= 100:
        raise ValueError(f"percentile {p} outside (0, 100]")
    ordered = sorted(values)
    return ordered[max(1, math.ceil(p * len(ordered) / 100)) - 1]


def beyond(n: int, p: float) -> int:
    """How many of n samples rank strictly above the p-th percentile."""
    return n - max(1, math.ceil(p * n / 100))


def tail_percentile(n: int) -> float | None:
    """Highest candidate percentile with TAIL_MIN_BEYOND samples beyond it."""
    for p in TAIL_CANDIDATES:
        if beyond(n, p) >= TAIL_MIN_BEYOND:
            return p
    return None


def timing_summary(values) -> dict:
    """{"n", "p50", and "p<tail>" when the sample count allows one}."""
    out: dict = {"n": len(values)}
    if not values:
        return out
    out["p50"] = percentile(values, 50)
    tail = tail_percentile(len(values))
    if tail is not None and tail != 50.0:
        out[f"p{tail:g}"] = percentile(values, tail)
    return out


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def covered(intervals, lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of the given intervals."""
    total = 0.0
    end = lo
    for start, stop in sorted(intervals):
        start, stop = max(start, end), min(stop, hi)
        if stop > start:
            total += stop - start
            end = stop
    return total


def self_times(spans) -> dict[int, float]:
    """span id -> duration minus the part of it its child spans cover.

    `spans` are (span_id, parent_id, name, xid, start, end) tuples.  A
    child may run on another thread and may outlive its parent; only the
    overlap with the parent's own interval is subtracted.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for _, parent, _, _, start, end in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    return {sid: (end - start) - covered(children.get(sid, ()), start, end)
            for sid, _, _, _, start, end in spans}
