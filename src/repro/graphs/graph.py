"""Graph view over sparse-matrix storage.

A :class:`Graph` wraps a square CSR matrix and exposes graph-flavoured
accessors (neighbors, degrees, undirected view).  Reordering techniques
and community detection operate on this view; the kernels and the cache
simulator operate on the underlying matrix.

A graph whose CSR is exactly its own transpose (see
:func:`repro.sparse.ops.equals_transpose`) builds neither view from
scratch: its transpose is the adjacency itself, and its undirected view
shares the adjacency's index arrays.  Arrays shared that way are made
read-only, so an in-place write raises instead of changing the other
view.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import ShapeError
from repro.sparse.convert import coo_to_csr, csr_to_coo
from repro.sparse.coo import INDEX_DTYPE, VALUE_DTYPE, COOMatrix
from repro.sparse.csr import CSRMatrix
from repro.sparse.ops import drop_self_loops, equals_transpose, is_symmetric, symmetrize, transpose


class Graph:
    """An (optionally directed) graph backed by a CSR adjacency matrix.

    Parameters
    ----------
    adjacency:
        Square CSR matrix; entry ``(u, v)`` is an edge from ``u`` to ``v``.
    directed:
        Whether the edge set should be interpreted as directed.  When
        false, the adjacency is expected to be structurally symmetric
        (validated lazily by :meth:`validate_undirected`).  Neither
        value is trusted for symmetry: the views below check it.

    The derived views (:attr:`in_adjacency`, :meth:`to_undirected`) are
    built once and cached.  When the adjacency equals its own transpose
    they share its arrays, which are then marked read-only.
    """

    # ``__weakref__``: the RABBIT detection memo holds graphs weakly.
    __slots__ = (
        "adjacency",
        "directed",
        "_undirected_cache",
        "_in_adjacency_cache",
        "_equals_transpose",
        "__weakref__",
    )

    def __init__(self, adjacency: CSRMatrix, directed: bool = False) -> None:
        if not adjacency.is_square:
            raise ShapeError(f"a graph needs a square adjacency, got {adjacency.shape}")
        self.adjacency = adjacency
        self.directed = bool(directed)
        self._undirected_cache: Optional["Graph"] = None
        self._in_adjacency_cache: Optional[CSRMatrix] = None
        self._equals_transpose: Optional[bool] = None

    @classmethod
    def from_coo(cls, coo: COOMatrix, directed: bool = False) -> "Graph":
        return cls(coo_to_csr(coo), directed=directed)

    @property
    def n_nodes(self) -> int:
        return self.adjacency.n_rows

    @property
    def n_edges(self) -> int:
        """Number of stored adjacency entries.

        For an undirected graph each edge ``{u, v}`` with ``u != v`` is
        stored twice, so this equals ``2 * |E| + |self loops|``.
        """
        return self.adjacency.nnz

    def out_degrees(self) -> np.ndarray:
        return self.adjacency.row_degrees()

    def in_degrees(self) -> np.ndarray:
        return self.adjacency.col_degrees()

    def degrees(self) -> np.ndarray:
        """Total degree; for undirected graphs this equals out-degree."""
        if self.directed:
            return self.out_degrees() + self.in_degrees()
        return self.out_degrees()

    def average_degree(self) -> float:
        """Mean number of non-zeros per row — the paper's hub threshold."""
        if self.n_nodes == 0:
            return 0.0
        return self.adjacency.nnz / self.n_nodes

    def neighbors(self, node: int) -> np.ndarray:
        """Out-neighbors of ``node`` (a view into the CSR indices)."""
        return self.adjacency.row_slice(node)

    def edge_weights(self, node: int) -> np.ndarray:
        return self.adjacency.row_values(node)

    def _is_own_transpose(self) -> bool:
        """:func:`~repro.sparse.ops.equals_transpose` of the adjacency, cached."""
        if self._equals_transpose is None:
            self._equals_transpose = equals_transpose(self.adjacency)
        return self._equals_transpose

    @property
    def in_adjacency(self) -> CSRMatrix:
        """CSR of the transposed adjacency (in-neighbors per row), cached.

        GOrder and any consumer needing in-neighbor expansion share one
        transpose instead of rebuilding it per call.  When the adjacency
        equals its own transpose, this *is* the adjacency, and its three
        arrays become read-only.
        """
        if self._in_adjacency_cache is None:
            if self._is_own_transpose():
                adjacency = self.adjacency
                _freeze(adjacency.row_offsets, adjacency.col_indices, adjacency.values)
                self._in_adjacency_cache = adjacency
            else:
                self._in_adjacency_cache = coo_to_csr(transpose(csr_to_coo(self.adjacency)))
        return self._in_adjacency_cache

    def validate_undirected(self) -> bool:
        """Check the adjacency is structurally symmetric."""
        return is_symmetric(csr_to_coo(self.adjacency))

    def to_undirected(self) -> "Graph":
        """``A + A^T`` with self loops dropped and duplicates merged, cached.

        Community detection and the insularity metrics both run on it.
        When the adjacency equals its own transpose and has neither a
        diagonal entry nor a repeated coordinate, ``A + A^T`` is ``2A``
        entry for entry: the view then shares the adjacency's row offsets
        and column indices, both made read-only, and holds only new
        values.  Any other input is symmetrized.  The result is the same
        either way.
        """
        if self._undirected_cache is None:
            adjacency = self.adjacency
            if self._is_own_transpose() and _no_loops_or_repeats(adjacency):
                _freeze(adjacency.row_offsets, adjacency.col_indices)
                # The sums merge_duplicates forms, 0 + v + v: equal to 2v,
                # except that they turn -0.0 into 0.0 as it does.
                values = np.zeros(adjacency.nnz, dtype=VALUE_DTYPE)
                values += adjacency.values
                values += adjacency.values
                undirected = Graph(
                    CSRMatrix.from_verified_arrays(
                        adjacency.n_rows,
                        adjacency.n_cols,
                        adjacency.row_offsets,
                        adjacency.col_indices,
                        values,
                    ),
                    directed=False,
                )
                undirected._equals_transpose = True  # so is 2A: no second sort
            else:
                coo = symmetrize(drop_self_loops(csr_to_coo(adjacency)))
                undirected = Graph(coo_to_csr(coo), directed=False)
            self._undirected_cache = undirected
        return self._undirected_cache

    def __repr__(self) -> str:
        kind = "directed" if self.directed else "undirected"
        return f"Graph({kind}, n_nodes={self.n_nodes}, entries={self.n_edges})"


def _no_loops_or_repeats(csr: CSRMatrix) -> bool:
    """No diagonal entry and no coordinate stored twice.

    Assumes sorted rows (true of any matrix that equals its transpose),
    so a repeat sits beside its twin in the same row.
    """
    rows = np.repeat(np.arange(csr.n_rows, dtype=INDEX_DTYPE), np.diff(csr.row_offsets))
    cols = csr.col_indices
    if np.any(rows == cols):
        return False
    return not np.any((cols[1:] == cols[:-1]) & (rows[1:] == rows[:-1]))


def _freeze(*arrays: np.ndarray) -> None:
    for array in arrays:
        array.flags.writeable = False
