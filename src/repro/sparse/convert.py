"""Conversions between the COO and CSR formats."""

from __future__ import annotations

import numpy as np

from repro.sparse.coo import COOMatrix, INDEX_DTYPE, row_major_order
from repro.sparse.csr import CSRMatrix


def coo_to_csr(coo: COOMatrix) -> CSRMatrix:
    """Convert a COO matrix to CSR, entries sorted by column within rows.

    Duplicate coordinates are preserved as separate entries in their
    COO order (merge them first with
    :func:`repro.sparse.ops.merge_duplicates` if needed).
    """
    order = row_major_order(coo.rows, coo.cols, coo.n_cols)
    counts = np.bincount(coo.rows, minlength=coo.n_rows)
    row_offsets = np.zeros(coo.n_rows + 1, dtype=INDEX_DTYPE)
    np.cumsum(counts, out=row_offsets[1:])
    return CSRMatrix(
        coo.n_rows,
        coo.n_cols,
        row_offsets,
        coo.cols[order],
        coo.values[order],
    )


def csr_to_coo(csr: CSRMatrix) -> COOMatrix:
    """Convert a CSR matrix to COO, preserving in-row entry order."""
    rows = np.repeat(
        np.arange(csr.n_rows, dtype=INDEX_DTYPE), np.diff(csr.row_offsets)
    )
    return COOMatrix(
        csr.n_rows,
        csr.n_cols,
        rows,
        csr.col_indices.copy(),
        csr.values.copy(),
    )
