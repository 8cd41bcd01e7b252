"""Reverse Cuthill–McKee ordering (paper ref. [23]).

The classic bandwidth-minimizing ordering: breadth-first traversal from
a pseudo-peripheral vertex, visiting neighbors in ascending degree
order, with the final order reversed.  Included because the paper lists
RCM among the techniques RABBIT was shown to match or exceed; useful as
an extra comparison point and for mesh-like matrices where RCM shines.
"""

from __future__ import annotations

from collections import deque
from typing import List

import numpy as np

from repro.graphs.graph import Graph
from repro.reorder.base import ReorderingTechnique, stable_order_to_permutation
from repro.reorder.fast.rcm import rcm_permutation_fast


class ReverseCuthillMcKee(ReorderingTechnique):
    """RCM over the undirected view, one BFS per connected component."""

    name = "rcm"

    def _compute(self, graph: Graph) -> np.ndarray:
        return rcm_permutation_fast(graph)


def _rcm_reference(graph: Graph) -> np.ndarray:
    """The original per-parent BFS implementation: the oracle for the
    vectorized engine, called by the differential tests and
    ``repro bench-reorder``."""
    undirected = graph.to_undirected()
    adjacency = undirected.adjacency
    n = adjacency.n_rows
    offsets = adjacency.row_offsets
    indices = adjacency.col_indices
    degrees = np.diff(offsets)

    visited = np.zeros(n, dtype=bool)
    order: List[int] = []
    # Process components by ascending minimum-degree start node.
    for candidate in np.argsort(degrees, kind="stable"):
        start = int(candidate)
        if visited[start]:
            continue
        start = _pseudo_peripheral(start, offsets, indices, degrees)
        order.extend(_component_bfs(start, offsets, indices, degrees, visited))
    visit = np.asarray(order[::-1], dtype=np.int64)
    return stable_order_to_permutation(visit)


def _component_bfs(
    start: int,
    offsets: np.ndarray,
    indices: np.ndarray,
    degrees: np.ndarray,
    visited: np.ndarray,
) -> List[int]:
    """Cuthill–McKee BFS marking ``visited`` in place."""
    order = [start]
    visited[start] = True
    queue = deque([start])
    while queue:
        v = queue.popleft()
        neighbors = indices[offsets[v]: offsets[v + 1]]
        fresh = neighbors[~visited[neighbors]]
        if fresh.size:
            fresh = np.unique(fresh)  # dedupe multi-entries
            fresh = fresh[~visited[fresh]]
            fresh = fresh[np.argsort(degrees[fresh], kind="stable")]
            for u in fresh:
                visited[u] = True
                order.append(int(u))
                queue.append(int(u))
    return order


def _pseudo_peripheral(
    start: int, offsets: np.ndarray, indices: np.ndarray, degrees: np.ndarray
) -> int:
    """George–Liu heuristic: walk to a far, low-degree vertex.

    Two rounds of BFS: each round moves the start to the lowest-degree
    vertex of the last BFS level, which empirically lands near the
    graph periphery and keeps RCM's bandwidth low.
    """
    current = start
    for _ in range(2):
        levels = _bfs_levels(current, offsets, indices)
        last_level = levels.max()
        if last_level <= 0:
            return current
        frontier = np.flatnonzero(levels == last_level)
        current = int(frontier[np.argmin(degrees[frontier])])
    return current


def _bfs_levels(start: int, offsets: np.ndarray, indices: np.ndarray) -> np.ndarray:
    n = offsets.size - 1
    levels = np.full(n, -1, dtype=np.int64)
    levels[start] = 0
    frontier = np.asarray([start], dtype=np.int64)
    depth = 0
    while frontier.size:
        depth += 1
        neighbor_parts = [
            indices[offsets[v]: offsets[v + 1]] for v in frontier
        ]
        if not neighbor_parts:
            break
        neighbors = np.unique(np.concatenate(neighbor_parts))
        fresh = neighbors[levels[neighbors] < 0]
        if fresh.size == 0:
            break
        levels[fresh] = depth
        frontier = fresh
    return levels
