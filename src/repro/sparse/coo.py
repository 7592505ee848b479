"""Coordinate (COO) sparse matrix format.

COO is the interchange format of the sparse substrate: matrix generators
produce COO, and the compressed formats (:mod:`repro.sparse.csr`,
:mod:`repro.sparse.csc`) are built from it. Entries are stored as three
parallel arrays ``(rows, cols, vals)``.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.errors import FormatError, ShapeError

__all__ = ["COOMatrix"]


class COOMatrix:
    """A sparse matrix in coordinate format.

    Parameters
    ----------
    rows, cols:
        Integer arrays of equal length holding the row/column index of each
        stored entry.
    vals:
        Float array of stored values, same length as ``rows``.
    shape:
        ``(n_rows, n_cols)`` of the logical matrix.

    Duplicate coordinates are permitted on construction; use
    :meth:`sum_duplicates` to combine them. Most conversions call it
    implicitly.
    """

    def __init__(
        self,
        rows: np.ndarray,
        cols: np.ndarray,
        vals: np.ndarray,
        shape: Tuple[int, int],
    ) -> None:
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        vals = np.asarray(vals, dtype=np.float64)
        if rows.ndim != 1 or cols.ndim != 1 or vals.ndim != 1:
            raise FormatError("COO arrays must be one-dimensional")
        if not (rows.size == cols.size == vals.size):
            raise FormatError(
                "COO arrays must have equal length, got "
                f"{rows.size}/{cols.size}/{vals.size}"
            )
        n_rows, n_cols = int(shape[0]), int(shape[1])
        if n_rows < 0 or n_cols < 0:
            raise ShapeError(f"negative shape {shape!r}")
        if rows.size:
            if rows.min() < 0 or rows.max() >= n_rows:
                raise FormatError("row index out of bounds")
            if cols.min() < 0 or cols.max() >= n_cols:
                raise FormatError("column index out of bounds")
        self.rows = rows
        self.cols = cols
        self.vals = vals
        self.shape = (n_rows, n_cols)

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def nnz(self) -> int:
        """Number of stored entries (including any duplicates)."""
        return int(self.vals.size)

    @property
    def density(self) -> float:
        """Fraction of stored entries relative to the dense size."""
        cells = self.shape[0] * self.shape[1]
        if cells == 0:
            return 0.0
        return self.nnz / cells

    def __repr__(self) -> str:
        return (
            f"COOMatrix(shape={self.shape}, nnz={self.nnz}, "
            f"density={self.density:.4g})"
        )

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "COOMatrix":
        """Build a COO matrix from a dense 2-D array, dropping zeros."""
        dense = np.asarray(dense, dtype=np.float64)
        if dense.ndim != 2:
            raise ShapeError("from_dense expects a 2-D array")
        rows, cols = np.nonzero(dense)
        return cls(rows, cols, dense[rows, cols], dense.shape)

    @classmethod
    def empty(cls, shape: Tuple[int, int]) -> "COOMatrix":
        """Build an all-zero matrix of the given shape."""
        zero = np.zeros(0)
        return cls(zero.astype(np.int64), zero.astype(np.int64), zero, shape)

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------
    def _merge(self, major: np.ndarray, minor: np.ndarray, n_minor: int):
        """Distinct coordinates in major-then-minor order, duplicates summed.

        Returns ``(kept, summed)``: ``kept`` indexes the first stored
        entry of each distinct coordinate, ``summed`` its total. A
        stable argsort keeps duplicates in input order, so every group
        sums left to right. Distinct keys sort alike under any algorithm,
        so the stable (several times slower) sort runs only when
        duplicates exist.
        """
        keys = major * n_minor + minor
        order = np.argsort(keys)
        sorted_keys = keys[order]
        first = np.ones(keys.size, dtype=bool)
        first[1:] = sorted_keys[1:] != sorted_keys[:-1]
        if not first.all():
            order = np.argsort(keys, kind="stable")
        summed = np.bincount(
            np.cumsum(first) - 1,
            weights=self.vals[order],
            minlength=int(np.count_nonzero(first)),
        )
        return order[first], summed

    def sum_duplicates(self) -> "COOMatrix":
        """Return an equivalent matrix with duplicate coordinates summed.

        Entries that sum to exactly zero are kept (they are still stored
        non-zeros); use :meth:`prune` to drop them.
        """
        if self.nnz == 0:
            return self
        kept, summed = self._merge(self.rows, self.cols, self.shape[1])
        return COOMatrix(self.rows[kept], self.cols[kept], summed, self.shape)

    def prune(self, tolerance: float = 0.0) -> "COOMatrix":
        """Drop stored entries whose magnitude is <= ``tolerance``."""
        keep = np.abs(self.vals) > tolerance
        return COOMatrix(
            self.rows[keep], self.cols[keep], self.vals[keep], self.shape
        )

    def transpose(self) -> "COOMatrix":
        """Return the transpose (O(nnz), swaps coordinate arrays)."""
        return COOMatrix(
            self.cols.copy(),
            self.rows.copy(),
            self.vals.copy(),
            (self.shape[1], self.shape[0]),
        )

    # ------------------------------------------------------------------
    # Conversions
    # ------------------------------------------------------------------
    def to_dense(self) -> np.ndarray:
        """Materialize as a dense numpy array (duplicates are summed)."""
        dense = np.zeros(self.shape)
        np.add.at(dense, (self.rows, self.cols), self.vals)
        return dense

    def _compressed(self, major, minor, n_major: int, n_minor: int):
        """``(indptr, minor indices, values)`` grouped by ``major``."""
        kept, summed = self._merge(major, minor, n_minor)
        indptr = np.zeros(n_major + 1, dtype=np.int64)
        indptr[1:] = np.cumsum(np.bincount(major[kept], minlength=n_major))
        return indptr, minor[kept], summed

    def to_csr(self):
        """Convert to :class:`repro.sparse.csr.CSRMatrix`."""
        from repro.sparse.csr import CSRMatrix

        indptr, cols, vals = self._compressed(
            self.rows, self.cols, self.shape[0], self.shape[1]
        )
        return CSRMatrix(indptr, cols, vals, self.shape)

    def to_csc(self):
        """Convert to :class:`repro.sparse.csc.CSCMatrix`."""
        from repro.sparse.csc import CSCMatrix

        indptr, rows, vals = self._compressed(
            self.cols, self.rows, self.shape[1], self.shape[0]
        )
        return CSCMatrix(indptr, rows, vals, self.shape)
