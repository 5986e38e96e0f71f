"""Summary statistics of the per-operation times."""

from __future__ import annotations

import math

TAIL_BEYOND = 10  # samples a reported tail percentile must have beyond it
MIN_TAIL_SAMPLES = 4 * TAIL_BEYOND


def tail_percentile(n):
    """The highest whole percentile q whose nearest-rank value has >= 10 samples beyond it."""
    if n < MIN_TAIL_SAMPLES:
        raise ValueError(f"a tail needs at least {MIN_TAIL_SAMPLES} samples, got {n}")
    return (100 * (n - TAIL_BEYOND)) // n


def tail(values):
    """(q, value): the nearest-rank q-th percentile of ``values`` for q = tail_percentile."""
    ordered = sorted(values)
    q = tail_percentile(len(ordered))
    rank = math.ceil(q * len(ordered) / 100)
    return q, ordered[rank - 1]
