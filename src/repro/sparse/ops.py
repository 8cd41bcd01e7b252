"""Structural operations on sparse matrices.

These operate on COO (the format the generators emit) because every
operation here is a whole-matrix restructure for which COO's flat
triple arrays are the natural representation.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError
from repro.sparse.coo import INDEX_DTYPE, COOMatrix, row_major_order
from repro.sparse.csr import CSRMatrix


def transpose(coo: COOMatrix) -> COOMatrix:
    """Swap rows and columns."""
    return COOMatrix(coo.n_cols, coo.n_rows, coo.cols.copy(), coo.rows.copy(), coo.values.copy())


def drop_self_loops(coo: COOMatrix) -> COOMatrix:
    """Remove entries on the main diagonal."""
    keep = coo.rows != coo.cols
    return COOMatrix(coo.n_rows, coo.n_cols, coo.rows[keep], coo.cols[keep], coo.values[keep])


def merge_duplicates(coo: COOMatrix) -> COOMatrix:
    """Combine duplicate coordinates by summing their values.

    The result is sorted in row-major order (a side effect of the
    grouping pass) with exactly one entry per distinct coordinate.
    """
    if coo.nnz == 0:
        return coo.copy()
    order = row_major_order(coo.rows, coo.cols, coo.n_cols)
    rows = coo.rows[order]
    cols = coo.cols[order]
    values = coo.values[order]
    is_first = np.empty(rows.size, dtype=bool)
    is_first[0] = True
    is_first[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
    group = np.cumsum(is_first) - 1
    summed = np.zeros(int(group[-1]) + 1, dtype=values.dtype)
    np.add.at(summed, group, values)
    return COOMatrix(coo.n_rows, coo.n_cols, rows[is_first], cols[is_first], summed)


def symmetrize(coo: COOMatrix) -> COOMatrix:
    """Return the undirected version ``A + A^T`` with duplicates merged.

    Reordering techniques such as RABBIT run community detection on the
    undirected structure of the matrix, so directed inputs are
    symmetrized before detection.  Requires a square matrix.
    """
    if not coo.is_square:
        raise ShapeError(f"symmetrize requires a square matrix, got {coo.shape}")
    rows = np.concatenate([coo.rows, coo.cols])
    cols = np.concatenate([coo.cols, coo.rows])
    values = np.concatenate([coo.values, coo.values])
    return merge_duplicates(COOMatrix(coo.n_rows, coo.n_cols, rows, cols, values))


def is_symmetric(coo: COOMatrix) -> bool:
    """Whether the sparsity pattern and values are symmetric."""
    if not coo.is_square:
        return False
    # Merging duplicates commutes with transposing: one merge serves both,
    # and leaves one entry per coordinate in row-major order, so only the
    # transpose needs sorting before the two compare entry by entry.
    merged = merge_duplicates(coo)
    order = row_major_order(merged.cols, merged.rows, merged.n_rows)
    return (
        bool(np.array_equal(merged.rows, merged.cols[order]))
        and bool(np.array_equal(merged.cols, merged.rows[order]))
        and bool(np.allclose(merged.values, merged.values[order]))
    )


def equals_transpose(csr: CSRMatrix) -> bool:
    """Whether ``csr`` is its own transpose, array for array.

    True exactly when ``coo_to_csr(transpose(csr_to_coo(csr)))`` would
    return ``csr``'s own three arrays: the same row offsets, the same
    columns in the same in-row order, and the same values to the bit.
    Unlike :func:`is_symmetric` there is no tolerance, and entries must
    already sit in row-major order, so a matrix that passes can stand in
    for its transpose without changing any result.
    """
    if not csr.is_square:
        return False
    degrees = np.diff(csr.row_offsets)
    # Equal in- and out-degrees are necessary, and cheap to compare:
    # most asymmetric matrices stop here, before the sort.
    if not np.array_equal(np.bincount(csr.col_indices, minlength=csr.n_cols), degrees):
        return False
    rows = np.repeat(np.arange(csr.n_rows, dtype=INDEX_DTYPE), degrees)
    cols = csr.col_indices
    order = row_major_order(cols, rows, csr.n_rows)
    bits = csr.values.view(np.uint64)
    return (
        bool(np.array_equal(cols[order], rows))
        and bool(np.array_equal(rows[order], cols))
        and bool(np.array_equal(bits[order], bits))
    )
