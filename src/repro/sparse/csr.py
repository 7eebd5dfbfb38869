"""The CSR matrix container.

Compressed Sparse Row is the format every algorithm in the paper assumes:
row-row SpGEMM streams rows of ``A``, the load vector is a per-row
reduction, and the split in Algorithm 2 cuts ``A`` horizontally — all
row-major operations.  The container is immutable by convention (methods
return new matrices; the underlying arrays are never resized in place) and
validates its invariants on construction so downstream kernels can skip
defensive checks.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.util.errors import ValidationError
from repro.util.prefix import ranges_gather

_INDEX = np.int64
_VALUE = np.float64


class CsrMatrix:
    """A real-valued sparse matrix in CSR form.

    Parameters
    ----------
    indptr:
        ``(n_rows + 1,)`` monotone row-pointer array; ``indptr[0] == 0`` and
        ``indptr[-1] == nnz``.
    indices:
        ``(nnz,)`` column indices, each in ``[0, n_cols)``.  Within a row
        they must be sorted and unique — a strict invariant here (SciPy
        tolerates violations; our merge-based kernels do not).
    data:
        ``(nnz,)`` values aligned with *indices*.  Explicit zeros are
        permitted (they count as structural nonzeros, as in the paper's
        work-volume accounting).
    shape:
        ``(n_rows, n_cols)``.
    copy:
        When false (default) the arrays are referenced, not copied; callers
        hand over ownership.
    """

    __slots__ = ("indptr", "indices", "data", "shape", "_self_product")

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        data: np.ndarray,
        shape: tuple[int, int],
        copy: bool = False,
    ) -> None:
        if copy:
            self.indptr = np.array(indptr, dtype=_INDEX)
            self.indices = np.array(indices, dtype=_INDEX)
            self.data = np.array(data, dtype=_VALUE)
        else:
            # asarray: reference when dtype already matches, copy otherwise
            # (NumPy 2 forbids copy=False when a conversion is required).
            self.indptr = np.asarray(indptr, dtype=_INDEX)
            self.indices = np.asarray(indices, dtype=_INDEX)
            self.data = np.asarray(data, dtype=_VALUE)
        self.shape = (int(shape[0]), int(shape[1]))
        # What A x A costs (its load vector and compression ratio), once
        # repro.sparse.spgemm has computed it for this operand.
        self._self_product = None
        self._validate()

    # -- invariants -----------------------------------------------------------

    def _validate(self) -> None:
        n_rows, n_cols = self.shape
        if n_rows < 0 or n_cols < 0:
            raise ValidationError(f"negative shape {self.shape}")
        if self.indptr.ndim != 1 or self.indptr.size != n_rows + 1:
            raise ValidationError(
                f"indptr must have {n_rows + 1} entries, got {self.indptr.size}"
            )
        if self.indptr[0] != 0:
            raise ValidationError("indptr[0] must be 0")
        if np.any(np.diff(self.indptr) < 0):
            raise ValidationError("indptr must be non-decreasing")
        nnz = int(self.indptr[-1])
        if self.indices.shape != (nnz,) or self.data.shape != (nnz,):
            raise ValidationError(
                f"indices/data must have {nnz} entries, got "
                f"{self.indices.size}/{self.data.size}"
            )
        if nnz:
            if int(self.indices.min()) < 0 or int(self.indices.max()) >= n_cols:
                raise ValidationError("column index out of range")
            # Sorted-and-unique within each row: the only allowed descents in
            # the global indices array are at row starts (one O(nnz) mask).
            row_start = np.zeros(nnz + 1, dtype=bool)
            row_start[self.indptr[1:-1]] = True
            ascent = self.indices[1:] > self.indices[:-1]
            if not np.all(ascent | row_start[1:-1]):
                raise ValidationError("column indices must be sorted and unique per row")

    # -- basic queries ----------------------------------------------------------

    @property
    def n_rows(self) -> int:
        return self.shape[0]

    @property
    def n_cols(self) -> int:
        return self.shape[1]

    @property
    def nnz(self) -> int:
        return int(self.indptr[-1])

    def row_nnz(self) -> np.ndarray:
        """Per-row nonzero counts — the paper's ``V`` vector for this matrix."""
        return np.diff(self.indptr)

    def row(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """Views of row *i*'s column indices and values (no copy)."""
        if not 0 <= i < self.n_rows:
            raise ValidationError(f"row {i} out of range [0, {self.n_rows})")
        lo, hi = int(self.indptr[i]), int(self.indptr[i + 1])
        return self.indices[lo:hi], self.data[lo:hi]

    def iter_rows(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        for i in range(self.n_rows):
            yield self.row(i)

    def memory_bytes(self) -> int:
        """Bytes occupied by the CSR arrays — what a PCIe transfer ships."""
        return int(
            self.indptr.nbytes + self.indices.nbytes + self.data.nbytes
        )

    # -- structural operations ---------------------------------------------------

    def row_slice(self, start: int, stop: int) -> "CsrMatrix":
        """Rows ``[start, stop)`` as a new matrix (indices/data are views)."""
        if not 0 <= start <= stop <= self.n_rows:
            raise ValidationError(
                f"bad row slice [{start}, {stop}) for {self.n_rows} rows"
            )
        lo, hi = int(self.indptr[start]), int(self.indptr[stop])
        return CsrMatrix(
            self.indptr[start : stop + 1] - lo,
            self.indices[lo:hi],
            self.data[lo:hi],
            (stop - start, self.n_cols),
        )

    def select_rows(self, rows: np.ndarray) -> "CsrMatrix":
        """Gather arbitrary *rows* (kept order, duplicates allowed)."""
        rows = np.asarray(rows, dtype=_INDEX)
        if rows.size and (rows.min() < 0 or rows.max() >= self.n_rows):
            raise ValidationError("row selection index out of range")
        counts = self.indptr[rows + 1] - self.indptr[rows]
        out_indptr = np.concatenate(([0], np.cumsum(counts)))
        gather = ranges_gather(self.indptr[rows], counts)
        return CsrMatrix(
            out_indptr,
            self.indices[gather],
            self.data[gather],
            (rows.size, self.n_cols),
        )

    def transpose(self) -> "CsrMatrix":
        """CSC-style transpose via a counting sort over columns."""
        n_rows, n_cols = self.shape
        counts = np.bincount(self.indices, minlength=n_cols)
        out_indptr = np.concatenate(([0], np.cumsum(counts)))
        order = np.argsort(self.indices, kind="stable")
        out_indices = np.repeat(np.arange(n_rows, dtype=_INDEX), self.row_nnz())[order]
        out_data = self.data[order]
        return CsrMatrix(out_indptr, out_indices, out_data, (n_cols, n_rows))

    def to_dense(self) -> np.ndarray:
        """Materialize as a dense array (tests / tiny examples only)."""
        out = np.zeros(self.shape, dtype=_VALUE)
        rows = np.repeat(np.arange(self.n_rows, dtype=_INDEX), self.row_nnz())
        out[rows, self.indices] = self.data
        return out

    def spmv(self, x: np.ndarray) -> np.ndarray:
        """Sparse matrix-vector product ``A @ x`` (vectorized segmented sum)."""
        x = np.asarray(x, dtype=_VALUE)
        if x.shape != (self.n_cols,):
            raise ValidationError(
                f"vector of length {x.size} incompatible with {self.shape}"
            )
        products = self.data * x[self.indices]
        out = np.zeros(self.n_rows, dtype=_VALUE)
        # reduceat needs non-empty segments; add.at handles empty rows cleanly.
        rows = np.repeat(np.arange(self.n_rows, dtype=_INDEX), self.row_nnz())
        np.add.at(out, rows, products)
        return out

    def allclose(self, other: "CsrMatrix", rtol: float = 1e-10, atol: float = 1e-12) -> bool:
        """Structural and numeric equality up to tolerance."""
        return (
            self.shape == other.shape
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
            and np.allclose(self.data, other.data, rtol=rtol, atol=atol)
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CsrMatrix(shape={self.shape}, nnz={self.nnz})"

