"""Compressed Sparse Row (CSR) matrix container.

CSR is the format every kernel and reordering technique in this library
operates on, mirroring the paper's Algorithm 1: ``row_offsets`` (length
``n_rows + 1``), ``col_indices`` and ``values`` (length ``nnz``).  The
input-vector gather ``X[col_indices[i]]`` is the irregular access whose
locality matrix reordering improves.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.errors import FormatError, ShapeError
from repro.sparse.coo import INDEX_DTYPE, VALUE_DTYPE, row_major_order


class CSRMatrix:
    """A sparse matrix in Compressed Sparse Row format.

    Invariants enforced at construction time:

    * ``row_offsets`` has length ``n_rows + 1``, starts at 0, ends at
      ``nnz`` and is non-decreasing;
    * ``col_indices`` and ``values`` have equal length ``nnz``;
    * all column indices are in ``[0, n_cols)``.

    Column indices within a row are *not* required to be sorted (the
    paper's point is precisely that the contents of a CSR can be
    arbitrarily ordered); use :meth:`has_sorted_rows` to check and
    :meth:`sort_rows` to normalize.
    """

    __slots__ = ("n_rows", "n_cols", "row_offsets", "col_indices", "values")

    def __init__(
        self,
        n_rows: int,
        n_cols: int,
        row_offsets: object,
        col_indices: object,
        values: object = None,
    ) -> None:
        if n_rows < 0 or n_cols < 0:
            raise ShapeError(f"matrix dimensions must be non-negative, got {n_rows}x{n_cols}")
        self.n_rows = int(n_rows)
        self.n_cols = int(n_cols)
        offsets = np.asarray(row_offsets)
        if offsets.ndim != 1 or offsets.size != self.n_rows + 1:
            raise ShapeError(
                f"row_offsets must have length n_rows + 1 = {self.n_rows + 1}, "
                f"got shape {offsets.shape}"
            )
        if offsets.size and not np.issubdtype(offsets.dtype, np.integer):
            raise FormatError(f"row_offsets must hold integers, got dtype {offsets.dtype}")
        self.row_offsets = offsets.astype(INDEX_DTYPE, copy=False)

        indices = np.asarray(col_indices)
        if indices.ndim != 1:
            raise ShapeError(f"col_indices must be one-dimensional, got shape {indices.shape}")
        if indices.size and not np.issubdtype(indices.dtype, np.integer):
            raise FormatError(f"col_indices must hold integers, got dtype {indices.dtype}")
        self.col_indices = indices.astype(INDEX_DTYPE, copy=False)

        if values is None:
            self.values = np.ones(self.col_indices.size, dtype=VALUE_DTYPE)
        else:
            vals = np.asarray(values, dtype=VALUE_DTYPE)
            if vals.shape != self.col_indices.shape:
                raise ShapeError(
                    f"values shape {vals.shape} != col_indices shape {self.col_indices.shape}"
                )
            self.values = vals
        self._check_invariants()

    @classmethod
    def from_verified_arrays(
        cls,
        n_rows: int,
        n_cols: int,
        row_offsets: np.ndarray,
        col_indices: np.ndarray,
        values: np.ndarray,
    ) -> "CSRMatrix":
        """Construct without the O(nnz) invariant scans.

        For arrays whose invariants were already established and recorded
        — e.g. a memory-mapped matrix whose checksummed metadata was
        written by :func:`repro.sparse.memmap.save_csr_memmap` at save
        time.  Running ``_check_invariants`` on an ``np.memmap`` would
        page the entire matrix into RAM, defeating the out-of-core path.
        Arrays must already carry the canonical dtypes
        (``INDEX_DTYPE``/``VALUE_DTYPE``) and lengths; only those cheap
        shape/dtype facts are re-checked here.
        """
        matrix = object.__new__(cls)
        matrix.n_rows = int(n_rows)
        matrix.n_cols = int(n_cols)
        if row_offsets.dtype != INDEX_DTYPE or col_indices.dtype != INDEX_DTYPE:
            raise FormatError(
                "from_verified_arrays requires canonical index dtype "
                f"{np.dtype(INDEX_DTYPE)}, got {row_offsets.dtype}/{col_indices.dtype}"
            )
        if values.dtype != VALUE_DTYPE:
            raise FormatError(
                f"from_verified_arrays requires canonical value dtype "
                f"{np.dtype(VALUE_DTYPE)}, got {values.dtype}"
            )
        if row_offsets.size != matrix.n_rows + 1:
            raise ShapeError(
                f"row_offsets must have length n_rows + 1 = {matrix.n_rows + 1}, "
                f"got shape {row_offsets.shape}"
            )
        if values.shape != col_indices.shape:
            raise ShapeError(
                f"values shape {values.shape} != col_indices shape {col_indices.shape}"
            )
        matrix.row_offsets = row_offsets
        matrix.col_indices = col_indices
        matrix.values = values
        return matrix

    def _check_invariants(self) -> None:
        offsets = self.row_offsets
        if offsets[0] != 0:
            raise FormatError(f"row_offsets must start at 0, got {offsets[0]}")
        if offsets[-1] != self.col_indices.size:
            raise FormatError(
                f"row_offsets must end at nnz ({self.col_indices.size}), got {offsets[-1]}"
            )
        if np.any(np.diff(offsets) < 0):
            raise FormatError("row_offsets must be non-decreasing")
        if self.col_indices.size:
            lo = int(self.col_indices.min())
            hi = int(self.col_indices.max())
            if lo < 0 or hi >= self.n_cols:
                raise FormatError(
                    f"column indices out of bounds for {self.n_cols} cols: [{lo}, {hi}]"
                )

    @property
    def nnz(self) -> int:
        return int(self.col_indices.size)

    @property
    def shape(self) -> Tuple[int, int]:
        return (self.n_rows, self.n_cols)

    @property
    def is_square(self) -> bool:
        return self.n_rows == self.n_cols

    def row_degrees(self) -> np.ndarray:
        """Out-degree (non-zeros per row)."""
        return np.diff(self.row_offsets)

    def col_degrees(self) -> np.ndarray:
        """In-degree (non-zeros per column)."""
        return np.bincount(self.col_indices, minlength=self.n_cols).astype(INDEX_DTYPE)

    def row_slice(self, row: int) -> np.ndarray:
        """Column indices of one row (a view, not a copy)."""
        if not 0 <= row < self.n_rows:
            raise IndexError(f"row {row} out of range for {self.n_rows} rows")
        return self.col_indices[self.row_offsets[row]: self.row_offsets[row + 1]]

    def row_values(self, row: int) -> np.ndarray:
        """Values of one row (a view, not a copy)."""
        if not 0 <= row < self.n_rows:
            raise IndexError(f"row {row} out of range for {self.n_rows} rows")
        return self.values[self.row_offsets[row]: self.row_offsets[row + 1]]

    def has_sorted_rows(self) -> bool:
        """Whether column indices are ascending within every row."""
        for row in range(self.n_rows):
            cols = self.row_slice(row)
            if cols.size > 1 and np.any(np.diff(cols) < 0):
                return False
        return True

    def sort_rows(self) -> "CSRMatrix":
        """Return a copy with column indices sorted within each row.

        Equal columns keep their order, as in
        :func:`repro.sparse.convert.coo_to_csr`.
        """
        rows = np.repeat(np.arange(self.n_rows, dtype=INDEX_DTYPE), self.row_degrees())
        order = row_major_order(rows, self.col_indices, self.n_cols)
        return CSRMatrix(
            self.n_rows,
            self.n_cols,
            self.row_offsets.copy(),
            self.col_indices[order],
            self.values[order],
        )

    def copy(self) -> "CSRMatrix":
        return CSRMatrix(
            self.n_rows,
            self.n_cols,
            self.row_offsets.copy(),
            self.col_indices.copy(),
            self.values.copy(),
        )

    def to_dense(self) -> np.ndarray:
        """Materialize as a dense array (small matrices only)."""
        dense = np.zeros(self.shape, dtype=VALUE_DTYPE)
        for row in range(self.n_rows):
            np.add.at(dense[row], self.row_slice(row), self.row_values(row))
        return dense

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CSRMatrix):
            return NotImplemented
        return (
            self.shape == other.shape
            and bool(np.array_equal(self.row_offsets, other.row_offsets))
            and bool(np.array_equal(self.col_indices, other.col_indices))
            and bool(np.allclose(self.values, other.values))
        )

    def __hash__(self) -> int:  # pragma: no cover - mutable container
        raise TypeError("CSRMatrix is not hashable")

    def __repr__(self) -> str:
        return f"CSRMatrix(shape={self.shape}, nnz={self.nnz})"
