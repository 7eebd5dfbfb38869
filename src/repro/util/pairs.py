"""Fused integer keys for sorting ``(major, minor)`` index pairs.

CSR construction and graph deduplication order index pairs row-major.
Fusing a pair into ``major * n_minor + minor`` turns the two-key
``np.lexsort`` into one sort of one int64 array, with the same order.
The fusion is exact only while every key fits in int64, so each helper
falls back to ``np.lexsort`` past 2**63.
"""

from __future__ import annotations

import numpy as np

_KEY_LIMIT = 2**63
_PACKED_BITS = 63


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


def packed_shift(n_major: int, n_minor: int, size: int) -> int | None:
    """Bits that hold a position below a fused key, or ``None``.

    ``key << shift | position`` keeps every key and each of *size*
    positions in one non-negative int64 while ``bits(n_major * n_minor -
    1) + bits(size - 1)`` is at most 63.
    """
    shift = max(int(size) - 1, 0).bit_length()
    keys = max(int(n_major), 1) * int(n_minor)
    if max(keys - 1, 0).bit_length() + shift > _PACKED_BITS:
        return None
    return shift


def row_major(
    major: np.ndarray,
    minor: np.ndarray,
    values: np.ndarray,
    n_major: int,
    n_minor: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The triples in stable row-major order, as new arrays.

    The result is what ``np.lexsort((minor, major))`` and three gathers
    give, bit for bit:

    - when :func:`packed_shift` fits, one in-place sort of ``key << shift
      | position``: ascending packed values are the stable order, the low
      bits gather *values* once, and the high bits split back into the
      pair (input already in order is sorted the same way);
    - otherwise a stable argsort of the fused key, or ``np.lexsort``
      past 2**63.
    """
    size = major.size
    key = pair_key(major, minor, n_major, n_minor)
    if key is None:
        order = np.lexsort((minor, major))
        return major[order], minor[order], values[order]
    shift = packed_shift(n_major, n_minor, size)
    if shift is None:
        order = np.argsort(key, kind="stable")
        return major[order], minor[order], values[order]
    # Shifts, masks and one // by a scalar: np.divmod on int64 costs
    # several times as much, and every step but the gathers is in place.
    key <<= shift
    key |= np.arange(size, dtype=key.dtype)
    key.sort()
    order = key & ((1 << shift) - 1)
    values = values[order]
    key >>= shift
    major = key // n_minor
    np.multiply(major, n_minor, out=order)  # reuse the spent order buffer
    key -= order
    return major, key, values


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
