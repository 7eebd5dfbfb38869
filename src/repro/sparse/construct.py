"""CSR construction helpers.

Everything that builds a :class:`~repro.sparse.csr.CsrMatrix` from something
else lives here so :mod:`repro.sparse.csr` stays a pure container module.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.sparse.csr import CsrMatrix
from repro.util.errors import ValidationError
from repro.util.pairs import row_major
from repro.util.rng import RngLike, as_generator

_INDEX = np.int64
_VALUE = np.float64


def from_coo(
    rows: np.ndarray,
    cols: np.ndarray,
    vals: np.ndarray,
    shape: tuple[int, int],
    sum_duplicates: bool = True,
) -> CsrMatrix:
    """Build CSR from coordinate triples.

    Entries are put into stable row-major order by
    :func:`~repro.util.pairs.row_major`: one in-place sort of the fused
    key ``row * n_cols + col`` packed with each entry's position (a stable
    argsort or ``np.lexsort`` for shapes too large to pack).  Duplicates
    at the same coordinate are summed in input order (the COO convention)
    unless *sum_duplicates* is false, in which case duplicates raise
    :class:`ValidationError`.  The matrix never shares memory with the
    input arrays.
    """
    rows = np.asarray(rows, dtype=_INDEX)
    cols = np.asarray(cols, dtype=_INDEX)
    vals = np.asarray(vals, dtype=_VALUE)
    if not (rows.shape == cols.shape == vals.shape) or rows.ndim != 1:
        raise ValidationError("rows/cols/vals must be 1-D arrays of equal length")
    n_rows, n_cols = shape
    if rows.size:
        if rows.min() < 0 or rows.max() >= n_rows:
            raise ValidationError("row index out of range")
        if cols.min() < 0 or cols.max() >= n_cols:
            raise ValidationError("column index out of range")
    rows, cols, vals = row_major(rows, cols, vals, n_rows, n_cols)
    if rows.size:
        dup = (rows[1:] == rows[:-1]) & (cols[1:] == cols[:-1])
        if np.any(dup):
            if not sum_duplicates:
                raise ValidationError("duplicate coordinates present")
            # Segment boundaries where a new (row, col) starts.
            first = np.concatenate(([True], ~dup))
            seg_ids = np.cumsum(first) - 1
            summed = np.zeros(int(seg_ids[-1]) + 1, dtype=_VALUE)
            np.add.at(summed, seg_ids, vals)
            rows, cols, vals = rows[first], cols[first], summed
    indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=n_rows))))
    return CsrMatrix(indptr, cols, vals, shape)


def from_dense(dense: np.ndarray, keep_explicit_zeros: bool = False) -> CsrMatrix:
    """Build CSR from a dense 2-D array, dropping zeros by default."""
    dense = np.asarray(dense, dtype=_VALUE)
    if dense.ndim != 2:
        raise ValidationError(f"expected 2-D array, got shape {dense.shape}")
    if keep_explicit_zeros:
        mask = np.ones_like(dense, dtype=bool)
    else:
        mask = dense != 0
    rows, cols = np.nonzero(mask)
    return from_coo(rows, cols, dense[rows, cols], dense.shape)


def from_rows(
    row_indices: Sequence[np.ndarray],
    row_values: Sequence[np.ndarray],
    n_cols: int,
) -> CsrMatrix:
    """Build CSR from per-row (indices, values) pairs.

    Indices within each row may be unsorted; duplicates within a row are
    summed.  Useful for samplers that assemble a matrix row by row.
    """
    if len(row_indices) != len(row_values):
        raise ValidationError("row_indices and row_values length mismatch")
    n_rows = len(row_indices)
    counts = np.fromiter((len(ix) for ix in row_indices), dtype=_INDEX, count=n_rows)
    rows = np.repeat(np.arange(n_rows, dtype=_INDEX), counts)
    cols = (
        np.concatenate([np.asarray(ix, dtype=_INDEX) for ix in row_indices])
        if n_rows and counts.sum()
        else np.empty(0, dtype=_INDEX)
    )
    vals = (
        np.concatenate([np.asarray(v, dtype=_VALUE) for v in row_values])
        if n_rows and counts.sum()
        else np.empty(0, dtype=_VALUE)
    )
    return from_coo(rows, cols, vals, (n_rows, n_cols))


def identity(n: int) -> CsrMatrix:
    """The n x n identity."""
    if n < 0:
        raise ValidationError("n must be non-negative")
    idx = np.arange(n, dtype=_INDEX)
    return CsrMatrix(np.arange(n + 1, dtype=_INDEX), idx, np.ones(n, dtype=_VALUE), (n, n))


def random_uniform(
    n_rows: int,
    n_cols: int,
    nnz_per_row: float,
    rng: RngLike = None,
    value_range: tuple[float, float] = (0.0, 1.0),
) -> CsrMatrix:
    """A uniformly random sparse matrix with ~``nnz_per_row`` nonzeros per row.

    Row lengths are Poisson around the target (clipped to ``n_cols``);
    column positions are uniform without replacement within each row; values
    are uniform in *value_range*.  The "unstructured" matrix of Section IV.
    """
    if n_rows < 0 or n_cols < 0:
        raise ValidationError("shape must be non-negative")
    if nnz_per_row < 0:
        raise ValidationError("nnz_per_row must be non-negative")
    gen = as_generator(rng)
    lengths = np.minimum(gen.poisson(nnz_per_row, size=n_rows), n_cols)
    total = int(lengths.sum())
    rows = np.repeat(np.arange(n_rows, dtype=_INDEX), lengths)
    # Uniform columns with replacement, then fold duplicates: cheaper than
    # per-row permutation and statistically indistinguishable at low density.
    cols = gen.integers(0, max(n_cols, 1), size=total) if total else np.empty(0, dtype=_INDEX)
    lo, hi = value_range
    vals = gen.uniform(lo, hi, size=total) if total else np.empty(0, dtype=_VALUE)
    return from_coo(rows, cols, vals, (n_rows, n_cols))
