"""Matrix samplers — Step 1 ("Sample") of the paper's framework.

Three samplers cover the paper's experiments:

* :func:`sample_submatrix` — Section IV: a uniformly random ``s x s``
  submatrix (rows and columns chosen uniformly at random, order preserved).
  With ``s = n/K`` the per-row nonzero count scales by ``~1/K``, preserving
  the sparsity *structure* in expectation.
* :func:`sample_rows_remap` — Section V: ``s`` uniformly random rows; within
  each kept row, elements survive with probability ``s/n`` and their column
  indices are rescaled into ``[0, s)``.  This keeps the row-density
  *distribution shape* (power law stays power law) while shrinking both
  dimensions.
* :func:`deterministic_block` — the Figure-7 ablation: a *predetermined*
  contiguous ``s x s`` block.  Deliberately not random; used to show that
  randomness is essential.
"""

from __future__ import annotations

import numpy as np

from repro.sparse.csr import CsrMatrix
from repro.sparse.construct import from_coo
from repro.util.errors import ValidationError
from repro.util.rng import RngLike, as_generator

_INDEX = np.int64


def _restrict_columns(a: CsrMatrix, cols_sel: np.ndarray) -> CsrMatrix:
    """Keep only columns in sorted, unique *cols_sel*, remapped to [0, len).

    O(n_cols + nnz): one position array of ``n_cols`` entries maps each
    kept column to its new index (-1 elsewhere), and one gather through it
    classifies every nonzero.  The map is increasing, so the kept entries
    stay row-major with sorted, unique columns; the CSR is built from them
    directly (``CsrMatrix`` still validates it), with no sort.  The map
    takes the narrowest signed type that holds ``-1`` and every position:
    on the road networks, whose rows hold about two nonzeros, an int64
    map would outweigh the sample it restricts.
    """
    pos = np.full(a.n_cols, -1, dtype=np.min_scalar_type(-cols_sel.size - 1))
    pos[cols_sel] = np.arange(cols_sel.size)
    cols = pos[a.indices]
    keep = cols >= 0
    kept_before = np.concatenate(([0], np.cumsum(keep, dtype=_INDEX)))
    return CsrMatrix(
        kept_before[a.indptr], cols[keep], a.data[keep], (a.n_rows, cols_sel.size)
    )


def sample_submatrix(a: CsrMatrix, size: int, rng: RngLike = None) -> CsrMatrix:
    """Uniformly random ``size x size`` submatrix of *a* (Section IV sampler).

    Rows and columns are drawn without replacement and kept in their
    original relative order, so banded structure stays banded and power-law
    rows stay heavy.
    """
    if not 0 <= size <= min(a.n_rows, a.n_cols):
        raise ValidationError(
            f"sample size {size} out of range for shape {a.shape}"
        )
    gen = as_generator(rng)
    rows_sel = np.sort(gen.choice(a.n_rows, size=size, replace=False))
    cols_sel = np.sort(gen.choice(a.n_cols, size=size, replace=False))
    return _restrict_columns(a.select_rows(rows_sel), cols_sel)


def sample_rows_remap(
    a: CsrMatrix,
    n_sample_rows: int,
    rng: RngLike = None,
    thin: bool = False,
) -> CsrMatrix:
    """Row sampler with column remapping into ``[0, s)`` (Section V).

    Draw *n_sample_rows* rows uniformly at random and transform every
    element's column index ``j`` to ``floor(j * s / n_cols)``; colliding
    elements are summed (column *folding*).  A row with ``d`` nonzeros
    keeps about ``s * (1 - exp(-d/s))`` distinct columns — a monotone,
    saturating compression of the density axis that
    :class:`~repro.core.extrapolate.SaturationExtrapolator` inverts.

    ``thin=True`` instead keeps each element only with probability
    ``s / n_cols`` before remapping, shrinking densities *linearly*.  At
    the paper's √n sample size thinning collapses every row to O(1)
    nonzeros and erases the density distribution the scale-free threshold
    keys on, so folding is the default; the thinning variant is retained
    for the sampler-comparison studies.
    """
    if not 0 <= n_sample_rows <= a.n_rows:
        raise ValidationError(
            f"cannot sample {n_sample_rows} rows from {a.n_rows}"
        )
    gen = as_generator(rng)
    s = n_sample_rows
    if s == 0 or a.n_cols == 0:
        return from_coo(
            np.empty(0, dtype=_INDEX),
            np.empty(0, dtype=_INDEX),
            np.empty(0, dtype=np.float64),
            (s, s),
        )
    rows_sel = np.sort(gen.choice(a.n_rows, size=s, replace=False))
    sub = a.select_rows(rows_sel)
    if thin:
        keep = gen.random(sub.nnz) < min(1.0, s / a.n_cols)
    else:
        keep = np.ones(sub.nnz, dtype=bool)
    rows = np.repeat(np.arange(s, dtype=_INDEX), sub.row_nnz())[keep]
    cols = (sub.indices[keep] * s) // a.n_cols
    vals = sub.data[keep]
    return from_coo(rows, np.minimum(cols, s - 1), vals, (s, s))


def deterministic_block(a: CsrMatrix, size: int, position: int, grid: int = 2) -> CsrMatrix:
    """A *predetermined* contiguous ``size x size`` block (Figure-7 ablation).

    *position* indexes a ``grid x grid`` arrangement of anchor points in
    row-major order (0 = top-left block, ``grid*grid - 1`` = bottom-right).
    No randomness whatsoever: this sampler inherits whatever local bias the
    chosen region has, which is the point of the ablation.
    """
    if not 0 <= size <= min(a.n_rows, a.n_cols):
        raise ValidationError(f"block size {size} out of range for shape {a.shape}")
    if grid < 1:
        raise ValidationError("grid must be >= 1")
    if not 0 <= position < grid * grid:
        raise ValidationError(f"position {position} out of range for grid {grid}")
    bi, bj = divmod(position, grid)
    row_start = _anchor(a.n_rows, size, bi, grid)
    col_start = _anchor(a.n_cols, size, bj, grid)
    sub = a.row_slice(row_start, row_start + size)
    cols_sel = np.arange(col_start, col_start + size, dtype=_INDEX)
    return _restrict_columns(sub, cols_sel)


def _anchor(extent: int, size: int, index: int, grid: int) -> int:
    """Start offset of block *index* of *grid* along an axis of *extent*."""
    if grid == 1:
        return (extent - size) // 2
    free = extent - size
    return (free * index) // (grid - 1)
