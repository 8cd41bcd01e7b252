"""Graph view over sparse-matrix storage.

A :class:`Graph` wraps a square CSR matrix and exposes graph-flavoured
accessors (neighbors, degrees, undirected view).  Reordering techniques
and community detection operate on this view; the kernels and the cache
simulator operate on the underlying matrix.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import ShapeError
from repro.sparse.convert import coo_to_csr, csr_to_coo
from repro.sparse.coo import COOMatrix
from repro.sparse.csr import CSRMatrix
from repro.sparse.ops import drop_self_loops, is_symmetric, symmetrize, transpose


class Graph:
    """An (optionally directed) graph backed by a CSR adjacency matrix.

    Parameters
    ----------
    adjacency:
        Square CSR matrix; entry ``(u, v)`` is an edge from ``u`` to ``v``.
    directed:
        Whether the edge set should be interpreted as directed.  When
        false, the adjacency is expected to be structurally symmetric
        (validated lazily by :meth:`validate_undirected`).
    """

    # ``__weakref__``: the RABBIT detection memo holds graphs weakly.
    __slots__ = ("adjacency", "directed", "_undirected_cache", "_in_adjacency_cache", "__weakref__")

    def __init__(self, adjacency: CSRMatrix, directed: bool = False) -> None:
        if not adjacency.is_square:
            raise ShapeError(f"a graph needs a square adjacency, got {adjacency.shape}")
        self.adjacency = adjacency
        self.directed = bool(directed)
        self._undirected_cache: Optional["Graph"] = None
        self._in_adjacency_cache: Optional[CSRMatrix] = None

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

    @property
    def in_adjacency(self) -> CSRMatrix:
        """CSR of the transposed adjacency (in-neighbors per row), cached.

        GOrder and any consumer needing in-neighbor expansion share one
        transpose instead of rebuilding it per call.
        """
        if self._in_adjacency_cache is None:
            self._in_adjacency_cache = coo_to_csr(transpose(csr_to_coo(self.adjacency)))
        return self._in_adjacency_cache

    def validate_undirected(self) -> bool:
        """Check the adjacency is structurally symmetric."""
        return is_symmetric(csr_to_coo(self.adjacency))

    def to_undirected(self, drop_loops: bool = True) -> "Graph":
        """Symmetrized copy (used by community detection).

        The result is cached: community detection and the insularity
        metrics both need it, and symmetrization is the most expensive
        structural operation on large inputs.
        """
        if not self.directed and self._undirected_cache is None and not drop_loops:
            return self
        if self._undirected_cache is None:
            coo = csr_to_coo(self.adjacency)
            if drop_loops:
                coo = drop_self_loops(coo)
            coo = symmetrize(coo)  # also merges duplicate entries
            self._undirected_cache = Graph(coo_to_csr(coo), directed=False)
        return self._undirected_cache

    def __repr__(self) -> str:
        kind = "directed" if self.directed else "undirected"
        return f"Graph({kind}, n_nodes={self.n_nodes}, entries={self.n_edges})"
