"""Summary statistics the benchmark reports."""

from __future__ import annotations

import statistics
from typing import Sequence

TAIL_BEYOND = 10


def tail(samples: Sequence[float]) -> tuple[float, float, int]:
    """The value at the highest percentile that has ten samples beyond it.

    Returns ``(value, percentile, sample count)``.  With ``N`` samples that
    percentile sits at rank ``N - 10`` of the sorted samples, so exactly ten
    lie above it.  With ten samples or fewer no percentile has ten beyond
    it, and the maximum is returned as percentile 100.
    """
    n = len(samples)
    if n == 0:
        raise ValueError("no samples")
    ordered = sorted(samples)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, n
    rank = n - TAIL_BEYOND
    return ordered[rank - 1], 100.0 * rank / n, n


def doubling_ratio(latency_by_size: dict) -> float:
    """Mean op latency at the largest size over that at half of it."""
    big = max(latency_by_size)
    half = big // 2
    if half not in latency_by_size:
        raise ValueError("no ops at half of size %d" % big)
    return (statistics.fmean(latency_by_size[big])
            / statistics.fmean(latency_by_size[half]))
