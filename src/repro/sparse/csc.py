"""Compressed Sparse Column (CSC) matrix container.

The pull/push duality the paper references ([6], [9]): CSR-based SpMV
*gathers* through the input vector, CSC-based SpMV *scatters* into the
output vector.  Reordering helps both, because a symmetric relabeling
bounds the irregular range on either side.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.errors import FormatError, ShapeError
from repro.sparse.coo import COOMatrix, INDEX_DTYPE, VALUE_DTYPE, row_major_order


class CSCMatrix:
    """A sparse matrix in Compressed Sparse Column format.

    Mirrors :class:`~repro.sparse.csr.CSRMatrix` with the roles of rows
    and columns exchanged: ``col_offsets`` has length ``n_cols + 1``
    and ``row_indices``/``values`` hold one entry per non-zero.
    """

    __slots__ = ("n_rows", "n_cols", "col_offsets", "row_indices", "values")

    def __init__(
        self,
        n_rows: int,
        n_cols: int,
        col_offsets: object,
        row_indices: object,
        values: object = None,
    ) -> None:
        if n_rows < 0 or n_cols < 0:
            raise ShapeError(f"matrix dimensions must be non-negative, got {n_rows}x{n_cols}")
        self.n_rows = int(n_rows)
        self.n_cols = int(n_cols)
        offsets = np.asarray(col_offsets)
        if offsets.ndim != 1 or offsets.size != self.n_cols + 1:
            raise ShapeError(
                f"col_offsets must have length n_cols + 1 = {self.n_cols + 1}, "
                f"got shape {offsets.shape}"
            )
        if offsets.size and not np.issubdtype(offsets.dtype, np.integer):
            raise FormatError(f"col_offsets must hold integers, got dtype {offsets.dtype}")
        self.col_offsets = offsets.astype(INDEX_DTYPE, copy=False)

        indices = np.asarray(row_indices)
        if indices.ndim != 1:
            raise ShapeError(f"row_indices must be one-dimensional, got shape {indices.shape}")
        if indices.size and not np.issubdtype(indices.dtype, np.integer):
            raise FormatError(f"row_indices must hold integers, got dtype {indices.dtype}")
        self.row_indices = indices.astype(INDEX_DTYPE, copy=False)

        if values is None:
            self.values = np.ones(self.row_indices.size, dtype=VALUE_DTYPE)
        else:
            vals = np.asarray(values, dtype=VALUE_DTYPE)
            if vals.shape != self.row_indices.shape:
                raise ShapeError(
                    f"values shape {vals.shape} != row_indices shape {self.row_indices.shape}"
                )
            self.values = vals
        self._check_invariants()

    def _check_invariants(self) -> None:
        offsets = self.col_offsets
        if offsets[0] != 0:
            raise FormatError(f"col_offsets must start at 0, got {offsets[0]}")
        if offsets[-1] != self.row_indices.size:
            raise FormatError(
                f"col_offsets must end at nnz ({self.row_indices.size}), got {offsets[-1]}"
            )
        if np.any(np.diff(offsets) < 0):
            raise FormatError("col_offsets must be non-decreasing")
        if self.row_indices.size:
            lo = int(self.row_indices.min())
            hi = int(self.row_indices.max())
            if lo < 0 or hi >= self.n_rows:
                raise FormatError(
                    f"row indices out of bounds for {self.n_rows} rows: [{lo}, {hi}]"
                )

    @property
    def nnz(self) -> int:
        return int(self.row_indices.size)

    @property
    def shape(self) -> Tuple[int, int]:
        return (self.n_rows, self.n_cols)

    def col_degrees(self) -> np.ndarray:
        return np.diff(self.col_offsets)

    def col_slice(self, col: int) -> np.ndarray:
        if not 0 <= col < self.n_cols:
            raise IndexError(f"column {col} out of range for {self.n_cols} cols")
        return self.row_indices[self.col_offsets[col]: self.col_offsets[col + 1]]

    def col_values(self, col: int) -> np.ndarray:
        if not 0 <= col < self.n_cols:
            raise IndexError(f"column {col} out of range for {self.n_cols} cols")
        return self.values[self.col_offsets[col]: self.col_offsets[col + 1]]

    def to_dense(self) -> np.ndarray:
        dense = np.zeros(self.shape, dtype=VALUE_DTYPE)
        for col in range(self.n_cols):
            np.add.at(dense[:, col], self.col_slice(col), self.col_values(col))
        return dense

    def __repr__(self) -> str:
        return f"CSCMatrix(shape={self.shape}, nnz={self.nnz})"


def coo_to_csc(coo: COOMatrix) -> CSCMatrix:
    """Convert COO to CSC (entries sorted column-major, rows ascending)."""
    order = row_major_order(coo.cols, coo.rows, coo.n_rows)
    counts = np.bincount(coo.cols, minlength=coo.n_cols)
    col_offsets = np.zeros(coo.n_cols + 1, dtype=INDEX_DTYPE)
    np.cumsum(counts, out=col_offsets[1:])
    return CSCMatrix(
        coo.n_rows, coo.n_cols, col_offsets, coo.rows[order], coo.values[order]
    )


def csc_to_coo(csc: CSCMatrix) -> COOMatrix:
    """Convert CSC back to COO (column-major entry order)."""
    cols = np.repeat(np.arange(csc.n_cols, dtype=INDEX_DTYPE), np.diff(csc.col_offsets))
    return COOMatrix(csc.n_rows, csc.n_cols, csc.row_indices.copy(), cols, csc.values.copy())


def spmv_csc(matrix: CSCMatrix, x: np.ndarray) -> np.ndarray:
    """``y = A @ x`` with ``A`` in CSC format (scatter-style)."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (matrix.n_cols,):
        raise ShapeError(
            f"input vector has shape {x.shape}, expected ({matrix.n_cols},)"
        )
    y = np.zeros(matrix.n_rows, dtype=np.float64)
    col_of_entry = np.repeat(
        np.arange(matrix.n_cols, dtype=INDEX_DTYPE), np.diff(matrix.col_offsets)
    )
    np.add.at(y, matrix.row_indices, matrix.values * x[col_of_entry])
    return y
