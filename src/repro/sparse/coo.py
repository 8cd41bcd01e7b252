"""Coordinate-format (COO) sparse matrix container.

COO stores one ``(row, col, value)`` triple per non-zero.  It is the
natural output format of the graph generators and the input format for
CSR construction.  The container is intentionally minimal: it validates
its invariants on construction and exposes read-only views; all
non-trivial algorithms live in sibling modules.
"""

from __future__ import annotations

from typing import Iterator, Tuple

import numpy as np

from repro.errors import FormatError, ShapeError

INDEX_DTYPE = np.int64
VALUE_DTYPE = np.float64

#: Entries whose positions :func:`row_major_order` packs per slice.
_POSITION_SLICE = 1 << 16


def _as_index_array(name: str, data: object) -> np.ndarray:
    array = np.asarray(data)
    if array.ndim != 1:
        raise ShapeError(f"{name} must be one-dimensional, got shape {array.shape}")
    if array.size and not np.issubdtype(array.dtype, np.integer):
        raise FormatError(f"{name} must hold integers, got dtype {array.dtype}")
    return array.astype(INDEX_DTYPE, copy=False)


def _as_value_array(name: str, data: object, length: int) -> np.ndarray:
    array = np.asarray(data, dtype=VALUE_DTYPE)
    if array.ndim != 1:
        raise ShapeError(f"{name} must be one-dimensional, got shape {array.shape}")
    if array.size != length:
        raise ShapeError(
            f"{name} has {array.size} entries but the matrix has {length} non-zeros"
        )
    return array


def row_major_order(rows: np.ndarray, cols: np.ndarray, n_cols: int) -> np.ndarray:
    """The permutation that sorts entries by row, then column, stably.

    The result equals ``np.lexsort`` with keys ``(cols, rows)`` for any
    in-bounds non-negative coordinates: equal coordinates keep their
    input order.  It is computed by one in-place ``np.sort`` of packed
    ``(row * n_cols + col) << shift | position`` keys, which is much
    faster than the lexsort.  The position bits make every key unique,
    so any sort is stable, and masking them out of the sorted keys
    leaves the order.  Keys that would need more than 63 bits (a huge
    declared shape) fall back to the lexsort.
    """
    n = rows.size
    if n == 0:
        return np.empty(0, dtype=np.intp)
    shift = int(n - 1).bit_length()
    top = int(rows.max()) * int(n_cols) + int(cols.max())
    if top.bit_length() + shift > 63:
        return np.lexsort((cols, rows))
    key = np.multiply(rows, n_cols, dtype=np.int64)
    key += cols
    key <<= shift
    # Positions go in by slices, so no full-length position array is
    # ever resident beside the keys: the sort peaks at the size of its
    # result, below the lexsort's.
    for start in range(0, n, _POSITION_SLICE):
        stop = min(start + _POSITION_SLICE, n)
        key[start:stop] |= np.arange(start, stop, dtype=np.int64)
    key.sort()
    key &= (1 << shift) - 1
    return key


def sorted_unique(values: np.ndarray) -> np.ndarray:
    """The sorted distinct values of a 1-D integer array.

    Equals a values-only ``np.unique``, with the same dtype, and leaves
    ``values`` unmodified.  It sorts a copy and keeps each value that
    differs from its predecessor: on NumPy 2.4, values-only
    ``np.unique`` on integers takes a hash path that measured 10-24x
    slower than this from 1K elements up, on a 2-core Xeon.
    """
    ordered = np.sort(values)
    if ordered.size == 0:
        return ordered
    distinct = np.empty(ordered.size, dtype=bool)
    distinct[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=distinct[1:])
    return ordered[distinct]


class COOMatrix:
    """A sparse matrix in coordinate format.

    Parameters
    ----------
    n_rows, n_cols:
        Matrix dimensions.  Both must be non-negative.
    rows, cols:
        Per-non-zero row and column indices.  Must be equal-length,
        one-dimensional integer arrays with entries inside the matrix
        bounds.
    values:
        Optional per-non-zero values; defaults to all ones (the
        adjacency-matrix convention used throughout the paper).

    Duplicate ``(row, col)`` pairs are permitted; see
    :func:`repro.sparse.ops.merge_duplicates` to combine them.
    """

    __slots__ = ("n_rows", "n_cols", "rows", "cols", "values")

    def __init__(
        self,
        n_rows: int,
        n_cols: int,
        rows: object,
        cols: object,
        values: object = None,
    ) -> None:
        if n_rows < 0 or n_cols < 0:
            raise ShapeError(f"matrix dimensions must be non-negative, got {n_rows}x{n_cols}")
        self.n_rows = int(n_rows)
        self.n_cols = int(n_cols)
        self.rows = _as_index_array("rows", rows)
        self.cols = _as_index_array("cols", cols)
        if self.rows.size != self.cols.size:
            raise ShapeError(
                f"rows ({self.rows.size}) and cols ({self.cols.size}) differ in length"
            )
        if values is None:
            self.values = np.ones(self.rows.size, dtype=VALUE_DTYPE)
        else:
            self.values = _as_value_array("values", values, self.rows.size)
        self._check_bounds()

    def _check_bounds(self) -> None:
        if self.rows.size == 0:
            return
        if self.rows.min() < 0 or self.rows.max() >= self.n_rows:
            raise FormatError(
                f"row indices out of bounds for {self.n_rows} rows: "
                f"[{self.rows.min()}, {self.rows.max()}]"
            )
        if self.cols.min() < 0 or self.cols.max() >= self.n_cols:
            raise FormatError(
                f"column indices out of bounds for {self.n_cols} cols: "
                f"[{self.cols.min()}, {self.cols.max()}]"
            )

    @property
    def nnz(self) -> int:
        """Number of stored entries (including any duplicates)."""
        return int(self.rows.size)

    @property
    def shape(self) -> Tuple[int, int]:
        return (self.n_rows, self.n_cols)

    @property
    def is_square(self) -> bool:
        return self.n_rows == self.n_cols

    def copy(self) -> "COOMatrix":
        return COOMatrix(
            self.n_rows,
            self.n_cols,
            self.rows.copy(),
            self.cols.copy(),
            self.values.copy(),
        )

    def triples(self) -> Iterator[Tuple[int, int, float]]:
        """Iterate over ``(row, col, value)`` triples (test/debug aid)."""
        for r, c, v in zip(self.rows, self.cols, self.values):
            yield int(r), int(c), float(v)

    def to_dense(self) -> np.ndarray:
        """Materialize as a dense array (small matrices only)."""
        dense = np.zeros(self.shape, dtype=VALUE_DTYPE)
        np.add.at(dense, (self.rows, self.cols), self.values)
        return dense

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, COOMatrix):
            return NotImplemented
        if self.shape != other.shape or self.nnz != other.nnz:
            return False
        order_a = row_major_order(self.rows, self.cols, self.n_cols)
        order_b = row_major_order(other.rows, other.cols, other.n_cols)
        return (
            bool(np.array_equal(self.rows[order_a], other.rows[order_b]))
            and bool(np.array_equal(self.cols[order_a], other.cols[order_b]))
            and bool(np.allclose(self.values[order_a], other.values[order_b]))
        )

    def __hash__(self) -> int:  # pragma: no cover - mutable container
        raise TypeError("COOMatrix is not hashable")

    def __repr__(self) -> str:
        return f"COOMatrix(shape={self.shape}, nnz={self.nnz})"
