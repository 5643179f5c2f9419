"""Order statistics used by the benchmark report."""

from __future__ import annotations

import math
import statistics

# A percentile is reported only when at least this many samples lie above it.
MIN_BEYOND = 10


def percentile(values: list[float], q: float) -> float:
    """The ``q``-th percentile (0 < q < 100) by the nearest-rank rule.

    Raises ValueError when fewer than MIN_BEYOND samples lie beyond the
    rank, because such a tail figure rests on too few requests to repeat.
    """
    if not 0 < q < 100:
        raise ValueError(f"percentile must lie strictly between 0 and 100, got {q}")
    n = len(values)
    rank = math.ceil(q / 100 * n)
    if rank < 1 or n - rank < MIN_BEYOND:
        raise ValueError(
            f"p{q:g} of {n} samples leaves {max(n - rank, 0)} beyond it; "
            f"need at least {MIN_BEYOND}"
        )
    return sorted(values)[rank - 1]


def min_samples(q: float) -> int:
    """Fewest samples for which ``percentile(values, q)`` is defined."""
    n = MIN_BEYOND + 1
    while n - math.ceil(q / 100 * n) < MIN_BEYOND:
        n += 1
    return n


def relative_spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median (the acceptance rule)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
