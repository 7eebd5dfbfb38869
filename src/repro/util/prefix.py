"""Prefix-sum tools for work-volume splitting and range gathers.

Both Algorithm 2 (spmm row split) and the cost models reduce "give device A
an r% share of the work" to a search over a prefix-sum of per-row (or
per-vertex) work.  These helpers implement that search once, vectorized,
plus the multi-range gather that CSR row selection and graph samples read
their runs with.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.util.errors import ValidationError


def inclusive_prefix_sum(values: Sequence[float] | np.ndarray) -> np.ndarray:
    """``out[i] = sum(values[:i+1])`` as float64."""
    return np.cumsum(np.asarray(values, dtype=np.float64))


def exclusive_prefix_sum(values: Sequence[float] | np.ndarray) -> np.ndarray:
    """``out[i] = sum(values[:i])`` as float64; ``out[0] == 0``."""
    arr = np.asarray(values, dtype=np.float64)
    out = np.empty(arr.size + 1, dtype=np.float64)
    out[0] = 0.0
    np.cumsum(arr, out=out[1:])
    return out[:-1]


def ranges_gather(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Indices covering ``[starts[i], starts[i]+counts[i])`` for all i, in order.

    The standard vectorized multi-range gather: an arithmetic ramp reset at
    each range boundary.
    """
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    ends = np.cumsum(counts)
    ramp = np.arange(total, dtype=np.int64) - np.repeat(ends - counts, counts)
    return np.repeat(starts, counts) + ramp


def split_index_for_share(work: np.ndarray, share: float) -> int:
    """Smallest ``i`` such that rows ``[0, i)`` carry at least *share* of work.

    This is line 3 of the paper's Algorithm 2: find the split row whose
    prefix load is closest to ``r% * L`` from above.  *share* is a fraction
    in [0, 1].  For an all-zero work vector any split is equivalent and we
    return the proportional index.
    """
    if not 0.0 <= share <= 1.0:
        raise ValidationError(f"share must be in [0, 1], got {share}")
    arr = np.asarray(work, dtype=np.float64)
    if arr.size == 0:
        return 0
    if np.any(arr < 0):
        raise ValidationError("work values must be non-negative")
    total = float(arr.sum())
    if total == 0.0:
        return int(round(share * arr.size))
    prefix = np.cumsum(arr)
    target = share * total
    # searchsorted finds the first prefix >= target; +1 converts from the
    # index of the last included row to the number of rows included.
    idx = int(np.searchsorted(prefix, target, side="left"))
    if idx < arr.size and share > 0.0:
        idx += 1
    return min(idx, arr.size) if share > 0.0 else 0


def balanced_chunks(n: int, parts: int) -> list[tuple[int, int]]:
    """Split ``range(n)`` into *parts* contiguous near-equal chunks.

    Mirrors line 6 of Algorithm 1 (dividing the CPU subgraph across ``c``
    threads).  Chunks differ in size by at most one element; empty chunks
    appear only when ``parts > n``.
    """
    if parts <= 0:
        raise ValidationError(f"parts must be positive, got {parts}")
    if n < 0:
        raise ValidationError(f"n must be non-negative, got {n}")
    base, extra = divmod(n, parts)
    bounds: list[tuple[int, int]] = []
    start = 0
    for i in range(parts):
        size = base + (1 if i < extra else 0)
        bounds.append((start, start + size))
        start += size
    return bounds
