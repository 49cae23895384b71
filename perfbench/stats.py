"""Summary statistics shared by the runner and its self-test."""

from __future__ import annotations

import math
import statistics
from typing import List, Optional, Sequence, Tuple

#: Candidate tail percentiles, highest first.
TAIL_LADDER = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 85.0, 80.0, 75.0, 50.0)
#: A tail percentile needs at least this many samples beyond it.
TAIL_MIN_BEYOND = 10


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile ``q`` (0-100) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    pos = (len(ordered) - 1) * q / 100.0
    low = math.floor(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def tail_percentile(count: int) -> Optional[float]:
    """Highest ladder percentile with >= 10 of ``count`` samples beyond it."""
    for q in TAIL_LADDER:
        if count * (1.0 - q / 100.0) >= TAIL_MIN_BEYOND:
            return q
    return None


def tail(values: Sequence[float]) -> Tuple[float, Optional[float]]:
    """(value, percentile) of the tail; the maximum when too few samples."""
    q = tail_percentile(len(values))
    if q is None:
        return max(values), None
    return percentile(values, q), q


def paired_overhead(untraced: Sequence[float], traced: Sequence[float]) -> Tuple[float, float]:
    """Median and inter-quartile spread of paired ``traced/untraced - 1``.

    Each pair measures the same input back to back, so the ratio
    cancels input-to-input variation; the median (not the minimum) of
    the ratios is an unbiased centre, and the spread says how far one
    pair can be trusted.
    """
    if len(untraced) != len(traced) or not untraced:
        raise ValueError("overhead needs equally many (>0) traced and untraced samples")
    ratios = [t / u - 1.0 for u, t in zip(untraced, traced)]
    if len(ratios) == 1:
        return ratios[0], 0.0
    q1, q2, q3 = statistics.quantiles(ratios, n=4)
    return statistics.median(ratios), q3 - q1


def fits(self_total: float, budget: float) -> bool:
    """Whether non-overlapping self times fit in the total they partition."""
    return self_total <= budget * (1.0 + 1e-6)


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def mean(values: Sequence[float]) -> float:
    return sum(values) / len(values)


def nonempty(values: List[float], what: str) -> List[float]:
    if not values:
        raise RuntimeError(f"no {what} samples were recorded")
    return values
