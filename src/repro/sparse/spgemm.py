"""Row-row (Gustavson) sparse matrix-matrix multiplication.

Two entry points matter to the paper:

* :func:`load_vector` — the exact work-volume predictor from Section IV:
  with ``V_B[k]`` the nonzero count of row ``k`` of ``B``, the product
  ``|A| x V_B`` gives ``L_AB[i]``, the number of multiply-accumulates row
  ``i`` of ``A`` generates in ``A x B``.  Algorithm 2 splits ``A`` on the
  prefix sums of this vector, and the cost models charge device time
  against it.
* :func:`spgemm` — the actual numeric product, used to verify results and
  to run the real kernels in examples/tests.  Implemented as the vectorized
  "expand, sort, coalesce" formulation of Gustavson's algorithm: every
  nonzero ``a_ik`` expands into ``a_ik * B[k, :]``, and the expanded
  coordinate list is folded by (row, col) — by one sort of the fused key
  ``row * n_cols + col`` in :func:`~repro.sparse.construct.from_coo`, or
  for dense streams by the sort-free :func:`_bucket_fold`.
* :func:`estimate_compression` — the output-to-multiply ratio the
  result-transfer terms need, measured on a row sample.

Both belong to the operand pair, so ``A x A``'s are computed once and kept
on ``A`` (:func:`self_load_vector`, :func:`self_compression`).
"""

from __future__ import annotations

import numpy as np

from repro.sparse.construct import from_coo
from repro.sparse.csr import CsrMatrix
from repro.util.errors import ValidationError
from repro.util.prefix import ranges_gather
from repro.util.rng import as_generator

_INDEX = np.int64


def _check_compatible(a: CsrMatrix, b: CsrMatrix) -> None:
    if a.n_cols != b.n_rows:
        raise ValidationError(
            f"incompatible shapes for product: {a.shape} x {b.shape}"
        )


def load_vector(a: CsrMatrix, b: CsrMatrix) -> np.ndarray:
    """``L_AB``: multiply-accumulate count of each row of ``A`` in ``A x B``.

    Exactly the paper's ``A x V_B`` trick, computed pattern-only: for each
    row ``i`` of ``A``, sum ``row_nnz(B)[k]`` over the columns ``k`` where
    ``A`` is nonzero.  Runs in O(nnz(A)).
    """
    _check_compatible(a, b)
    v_b = b.row_nnz().astype(np.float64)
    contributions = v_b[a.indices]
    out = np.zeros(a.n_rows, dtype=np.float64)
    rows = np.repeat(np.arange(a.n_rows, dtype=_INDEX), a.row_nnz())
    np.add.at(out, rows, contributions)
    return out


class _SelfProduct:
    """``A x A``'s load vector and, once estimated, compression ratio.

    Kept on ``A`` (``CsrMatrix._self_product``), so every problem that
    prices ``A x A`` shares them; the vector is read-only for that reason.
    A sampled or block matrix is a new operand and pays once.
    """

    __slots__ = ("load", "compression")

    def __init__(self, a: CsrMatrix) -> None:
        self.load = load_vector(a, a)
        self.load.flags.writeable = False
        self.compression: float | None = None


def _self_product(a: CsrMatrix) -> _SelfProduct:
    if a._self_product is None:
        a._self_product = _SelfProduct(a)
    return a._self_product


def self_load_vector(a: CsrMatrix) -> np.ndarray:
    """``load_vector(a, a)``, computed once per operand (read-only)."""
    return _self_product(a).load


def row_flops(a: CsrMatrix, b: CsrMatrix) -> np.ndarray:
    """Per-row FLOPs of ``A x B`` (2 per multiply-accumulate)."""
    return 2.0 * load_vector(a, b)


def total_flops(a: CsrMatrix, b: CsrMatrix) -> float:
    """Total FLOPs of the product."""
    return float(row_flops(a, b).sum())


# The bucketed fold walks a dense accumulator of n_cols cells per row; it
# only pays off when the expansion stream roughly fills those cells.  Below
# this expansion-to-cells ratio the fused-key sort in ``from_coo`` wins.
_FOLD_DENSITY_CUTOFF = 8
# Dense-accumulator budget per row block (cells, not bytes): bounds peak
# memory of the fold at ~3 arrays of this many elements.
_FOLD_BLOCK_CELLS = 1 << 22


def _bucket_fold(
    exp_ptr: np.ndarray,
    out_cols: np.ndarray,
    out_vals: np.ndarray,
    shape: tuple[int, int],
) -> CsrMatrix:
    """Fold an expansion stream (already grouped by row) without sorting.

    ``exp_ptr[r]`` bounds row *r*'s slice of ``out_cols``/``out_vals`` — the
    stream ``np.repeat`` produces is non-decreasing in row, so no sort is
    needed: each row block scatters into a dense ``rows_in_block x n_cols``
    accumulator via ``np.bincount``.  Weighted bincount adds duplicates in
    input order — the same left-fold ``np.add.at`` performs after the stable
    fused-key sort in :func:`from_coo` — so the result is bit-identical to
    that path.  Unweighted counts supply the structural pattern, which keeps
    explicit zeros exactly as ``from_coo`` does.
    """
    n_rows, n_cols = shape
    block_rows = max(1, _FOLD_BLOCK_CELLS // max(n_cols, 1))
    row_exp = np.diff(exp_ptr)
    cols_parts: list[np.ndarray] = []
    vals_parts: list[np.ndarray] = []
    row_counts = np.zeros(n_rows, dtype=_INDEX)
    for r0 in range(0, n_rows, block_rows):
        r1 = min(r0 + block_rows, n_rows)
        lo, hi = int(exp_ptr[r0]), int(exp_ptr[r1])
        if lo == hi:
            continue
        local = np.repeat(np.arange(r1 - r0, dtype=_INDEX), row_exp[r0:r1])
        key = local * n_cols + out_cols[lo:hi]
        cells = (r1 - r0) * n_cols
        hits = np.bincount(key, minlength=cells)
        sums = np.bincount(key, weights=out_vals[lo:hi], minlength=cells)
        nz = np.flatnonzero(hits)
        cols_parts.append(nz % n_cols)
        vals_parts.append(sums[nz])
        row_counts[r0:r1] = np.bincount(nz // n_cols, minlength=r1 - r0)
    indices = (
        np.concatenate(cols_parts) if cols_parts else np.empty(0, dtype=_INDEX)
    )
    data = (
        np.concatenate(vals_parts) if vals_parts else np.empty(0, dtype=np.float64)
    )
    indptr = np.concatenate(([0], np.cumsum(row_counts)))
    return CsrMatrix(indptr, indices, data, shape)


def spgemm(a: CsrMatrix, b: CsrMatrix) -> CsrMatrix:
    """Numeric product ``C = A x B`` via vectorized Gustavson expansion.

    Memory use is proportional to the multiply count (``sum(load_vector)``),
    the same intermediate size a hash-based Gustavson would stream through;
    suitable for the scaled experiment instances and all tests.

    Dense expansion streams (banded operands, where overlapping bands make
    the per-row expansion comparable to ``n_cols``) skip the ``from_coo``
    sort entirely and fold through :func:`_bucket_fold`; sparse streams
    (rmat/uniform) keep the sort-based fold.  Both paths produce
    bit-identical matrices.
    """
    _check_compatible(a, b)
    if a.nnz == 0 or b.nnz == 0:
        return from_coo(
            np.empty(0, dtype=_INDEX),
            np.empty(0, dtype=_INDEX),
            np.empty(0, dtype=np.float64),
            (a.n_rows, b.n_cols),
        )
    b_row_nnz = b.row_nnz()
    # Per A-nonzero: how many products it expands into (the nnz of B's row
    # selected by the A-nonzero's column).
    expand_counts = b_row_nnz[a.indices]
    cum_exp = np.concatenate(([0], np.cumsum(expand_counts)))
    total = int(cum_exp[-1])
    shape = (a.n_rows, b.n_cols)
    if total == 0:
        return from_coo(
            np.empty(0, dtype=_INDEX),
            np.empty(0, dtype=_INDEX),
            np.empty(0, dtype=np.float64),
            shape,
        )
    gather = ranges_gather(b.indptr[a.indices], expand_counts)
    out_cols = b.indices[gather]
    out_vals = np.repeat(a.data, expand_counts) * b.data[gather]
    if a.n_rows * b.n_cols <= _FOLD_DENSITY_CUTOFF * total:
        # exp_ptr[r] = first expansion entry of row r (a.indptr indexes the
        # per-nonzero prefix sums).
        exp_ptr = cum_exp[a.indptr]
        return _bucket_fold(exp_ptr, out_cols, out_vals, shape)
    a_rows = np.repeat(np.arange(a.n_rows, dtype=_INDEX), a.row_nnz())
    out_rows = np.repeat(a_rows, expand_counts)
    return from_coo(out_rows, out_cols, out_vals, shape)


def spgemm_dense_reference(a: CsrMatrix, b: CsrMatrix) -> np.ndarray:
    """Dense O(n^3)-ish reference product for small-matrix tests."""
    _check_compatible(a, b)
    return a.to_dense() @ b.to_dense()


def estimate_compression(
    a: CsrMatrix, b: CsrMatrix, max_rows: int = 256, rng=None
) -> float:
    """Estimate ``nnz(AxB) / multiply-count`` from a row sample.

    Row-row SpGEMM merges colliding column contributions, so the output is
    smaller than the multiply stream — dramatically so for banded matrices
    (overlapping bands collide constantly), hardly at all for uniform
    random ones.  The result-transfer terms of the cost models need this
    ratio; an exact symbolic pass would cost as much as the product itself,
    so we measure it exactly on up to *max_rows* uniformly random rows.
    Each sampled row's distinct output columns are counted without a sort:
    its expansion ``c`` stamps ``stamp[c] = arange(len(c))`` into one
    reusable array, and exactly one position ``i`` per distinct column
    reads its own stamp back (``stamp[c[i]] == i``), whichever duplicate
    write landed.  That is O(expansions + rows) in all.

    Deterministic by default: the sample seed derives from the operand
    shapes and nonzero counts, so repeated pricing of one instance agrees.
    ``A x A`` reads the load vector kept on ``A`` (:func:`self_load_vector`).
    """
    _check_compatible(a, b)
    lv = self_load_vector(a) if b is a else load_vector(a, b)
    total_mults = float(lv.sum())
    if total_mults == 0:
        return 1.0
    if rng is None:
        # The operand fingerprint is the seed, so repeated pricing of one
        # instance agrees.  Kept as the historical arithmetic hash (not
        # stable_seed) so previously published runs replay unchanged.
        rng = (a.n_rows * 1_000_003 + a.nnz * 101 + b.nnz) % (2**63)
    rng = as_generator(rng)
    candidates = np.flatnonzero(lv > 0)
    k = min(max_rows, candidates.size)
    rows = rng.choice(candidates, size=k, replace=False)
    a_counts = a.row_nnz()[rows]
    cols_a = a.indices[ranges_gather(a.indptr[rows], a_counts)]
    expand_counts = b.row_nnz()[cols_a]
    out_cols = b.indices[ranges_gather(b.indptr[cols_a], expand_counts)]
    if out_cols.size == 0:
        return 1.0
    # Sampled row s expands into out_cols[bounds[s]:bounds[s + 1]].
    exp_ptr = np.concatenate(([0], np.cumsum(expand_counts)))
    bounds = exp_ptr[np.concatenate(([0], np.cumsum(a_counts)))]
    positions = np.arange(int(np.diff(bounds).max()), dtype=_INDEX)
    stamp = np.empty(b.n_cols, dtype=_INDEX)  # every read follows its write
    distinct = 0
    for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
        c = out_cols[lo:hi]
        here = positions[: hi - lo]
        stamp[c] = here
        distinct += int(np.count_nonzero(stamp[c] == here))
    # Both counts are integers far below 2**53, so they are the same
    # floats a per-row running sum gives, and so is their ratio.
    ratio = float(distinct) / float(out_cols.size)
    return float(np.clip(ratio, 0.0, 1.0))


def self_compression(a: CsrMatrix) -> float:
    """``estimate_compression(a, a)``, estimated once per operand.

    The ratio is a property of the operand, so it is kept on *a* with its
    load vector, and every problem that prices ``A x A`` shares it.
    """
    memo = _self_product(a)
    if memo.compression is None:
        memo.compression = estimate_compression(a, a)
    return memo.compression
