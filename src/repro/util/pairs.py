"""Fused integer keys for sorting ``(major, minor)`` index pairs.

CSR construction, graph deduplication and the SpGEMM output-size estimate
all order index pairs row-major.  Fusing a pair into ``major * n_minor +
minor`` turns the two-key ``np.lexsort`` into one sort of one int64
array, with the same order.  The fusion is exact only while every key
fits in int64, so each helper falls back to ``np.lexsort`` past 2**63.
"""

from __future__ import annotations

import numpy as np

_KEY_LIMIT = 2**63


def pair_key(
    major: np.ndarray, minor: np.ndarray, n_major: int, n_minor: int
) -> np.ndarray | None:
    """``major * n_minor + minor`` as one int64 key, or ``None``.

    Ascending keys order the pairs exactly as ``np.lexsort((minor,
    major))`` does.  ``None`` when ``n_major * n_minor`` (as Python ints,
    with at least one major) reaches 2**63, where a key could overflow;
    callers then lexsort.
    """
    if max(int(n_major), 1) * int(n_minor) >= _KEY_LIMIT:
        return None
    key = major * n_minor
    key += minor  # in place: one temporary the size of the input, not two
    return key


def unique_pairs(
    major: np.ndarray, minor: np.ndarray, n_major: int, n_minor: int
) -> tuple[np.ndarray, np.ndarray]:
    """The distinct ``(major, minor)`` pairs, in row-major order.

    Sorts the fused key and drops adjacent repeats.  ``np.unique`` would
    give the same pairs, but on int64 it hashes, which NumPy 2.4 runs many
    times slower than this sort.
    """
    if major.size == 0:
        return major, minor
    key = pair_key(major, minor, n_major, n_minor)
    if key is None:
        order = np.lexsort((minor, major))
        major, minor = major[order], minor[order]
        fresh = (major[1:] != major[:-1]) | (minor[1:] != minor[:-1])
        keep = np.concatenate(([True], fresh))
        return major[keep], minor[keep]
    key.sort()  # a fresh array: sort in place, no copy
    key = key[np.concatenate(([True], key[1:] != key[:-1]))]
    return key // n_minor, key % n_minor
