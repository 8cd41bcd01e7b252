"""Symmetric (row + column) permutation of square sparse matrices.

Matrix reordering assigns every node a new ID; applying that assignment
to a matrix means relabeling both rows and columns with the same
permutation so the matrix still represents the same graph.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError, ValidationError
from repro.sparse.convert import coo_to_csr, csr_to_coo
from repro.sparse.coo import COOMatrix, INDEX_DTYPE
from repro.sparse.csr import CSRMatrix


def check_permutation(perm: np.ndarray, n: int) -> np.ndarray:
    """Validate that ``perm`` is a permutation of ``range(n)``.

    ``perm[old_id] == new_id`` is the convention used across the
    library.  Returns the validated array as ``int64``.
    """
    array = np.asarray(perm)
    if array.ndim != 1 or array.size != n:
        raise ShapeError(f"permutation must have shape ({n},), got {array.shape}")
    if array.size and not np.issubdtype(array.dtype, np.integer):
        raise ValidationError(f"permutation must hold integers, got dtype {array.dtype}")
    array = array.astype(INDEX_DTYPE, copy=False)
    seen = np.zeros(n, dtype=bool)
    if array.size:
        if array.min() < 0 or array.max() >= n:
            raise ValidationError(
                f"permutation entries out of range [0, {n}): "
                f"[{array.min()}, {array.max()}]"
            )
        seen[array] = True
        if not seen.all():
            raise ValidationError("permutation has repeated entries")
    return array


def invert_permutation(perm: np.ndarray) -> np.ndarray:
    """Return the inverse mapping (``new_id -> old_id``)."""
    perm = check_permutation(perm, len(perm))
    inverse = np.empty_like(perm)
    inverse[perm] = np.arange(perm.size, dtype=perm.dtype)
    return inverse


def permute_symmetric(csr: CSRMatrix, perm: np.ndarray) -> CSRMatrix:
    """Relabel rows and columns of a square CSR matrix.

    Entry ``A[i, j]`` of the input appears at ``B[perm[i], perm[j]]`` in
    the output.
    """
    if not csr.is_square:
        raise ShapeError(f"symmetric permutation requires a square matrix, got {csr.shape}")
    perm = check_permutation(perm, csr.n_rows)
    coo = csr_to_coo(csr)
    relabeled = COOMatrix(
        coo.n_rows,
        coo.n_cols,
        perm[coo.rows],
        perm[coo.cols],
        coo.values,
    )
    return coo_to_csr(relabeled)


def permute_coo(coo: COOMatrix, perm: np.ndarray) -> COOMatrix:
    """Relabel rows and columns of a square COO matrix."""
    if not coo.is_square:
        raise ShapeError(f"symmetric permutation requires a square matrix, got {coo.shape}")
    perm = check_permutation(perm, coo.n_rows)
    return COOMatrix(coo.n_rows, coo.n_cols, perm[coo.rows], perm[coo.cols], coo.values.copy())
