"""Summary statistics of operation times."""

from __future__ import annotations

from typing import Sequence, Tuple

#: samples that must lie beyond the reported tail value
TAIL_BEYOND = 10


def tail(values: Sequence[float]) -> Tuple[float, float, int]:
    """The highest percentile with at least ``TAIL_BEYOND`` samples above it.

    Returns ``(value, percentile, samples)``: with ``n`` samples sorted
    ascending, the value of rank ``n - TAIL_BEYOND`` (1-based) has exactly
    ``TAIL_BEYOND`` ranks after it, and it is the
    ``100 * (n - TAIL_BEYOND) / n`` percentile by nearest rank.
    """
    n = len(values)
    if n <= TAIL_BEYOND:
        raise ValueError(f"{n} samples cannot leave {TAIL_BEYOND} beyond a percentile")
    rank = n - TAIL_BEYOND
    return sorted(values)[rank - 1], 100.0 * rank / n, n
