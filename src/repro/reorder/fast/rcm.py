"""Generation-batched Reverse Cuthill–McKee.

Bit-identical to the per-parent BFS oracle in ``tests/oracles/reorder.py``,
which dequeues one parent at a time and appends its unvisited
neighbors deduplicated and sorted by ``(degree, node id)``.  Within a
BFS level that sequential process is equivalent to

1. gather all neighbors of the level's parents (parents in queue
   order),
2. keep unvisited ones and resolve duplicates to the *earliest* parent
   (the parent that would have marked the child visited first),
3. sort the claimed children by ``(parent rank, degree, node id)``.

Step 3's triple sort reproduces the per-parent ``np.unique`` +
stable-argsort-by-degree order exactly, so one ``np.lexsort`` per BFS
level replaces the per-parent Python loop.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.graphs.graph import Graph
from repro.reorder.base import stable_order_to_permutation


def _gather_rows(
    offsets: np.ndarray, indices: np.ndarray, rows: np.ndarray
) -> "tuple[np.ndarray, np.ndarray]":
    """Concatenate CSR rows; returns (entries, per-entry row rank)."""
    counts = offsets[rows + 1] - offsets[rows]
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=indices.dtype), np.empty(0, dtype=np.int64)
    rank = np.repeat(np.arange(rows.size, dtype=np.int64), counts)
    segment_base = np.cumsum(counts) - counts
    positions = np.arange(total, dtype=np.int64) - segment_base[rank] + offsets[rows][rank]
    return indices[positions], rank


def _bfs_levels_fast(start: int, offsets: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """Vectorized level assignment (same result as the reference BFS)."""
    n = offsets.size - 1
    levels = np.full(n, -1, dtype=np.int64)
    levels[start] = 0
    frontier = np.asarray([start], dtype=np.int64)
    depth = 0
    while frontier.size:
        depth += 1
        neighbors, _ = _gather_rows(offsets, indices, frontier)
        if neighbors.size == 0:
            break
        neighbors = np.unique(neighbors)
        fresh = neighbors[levels[neighbors] < 0]
        if fresh.size == 0:
            break
        levels[fresh] = depth
        frontier = fresh
    return levels


def _pseudo_peripheral_fast(
    start: int, offsets: np.ndarray, indices: np.ndarray, degrees: np.ndarray
) -> int:
    """George–Liu heuristic (reference ``_pseudo_peripheral``)."""
    current = start
    for _ in range(2):
        levels = _bfs_levels_fast(current, offsets, indices)
        last_level = levels.max()
        if last_level <= 0:
            return current
        frontier = np.flatnonzero(levels == last_level)
        current = int(frontier[np.argmin(degrees[frontier])])
    return current


def _component_bfs_fast(
    start: int,
    offsets: np.ndarray,
    indices: np.ndarray,
    degrees: np.ndarray,
    visited: np.ndarray,
) -> List[np.ndarray]:
    """Cuthill–McKee BFS, one lexsort per level; marks ``visited``."""
    visited[start] = True
    frontier = np.asarray([start], dtype=np.int64)
    chunks = [frontier]
    while frontier.size:
        children, parent_rank = _gather_rows(offsets, indices, frontier)
        if children.size:
            keep = ~visited[children]
            children = children[keep]
            parent_rank = parent_rank[keep]
        if children.size == 0:
            break
        # Earliest parent claims each child (sequential marking order).
        by_child = np.lexsort((parent_rank, children))
        children = children[by_child]
        parent_rank = parent_rank[by_child]
        first = np.ones(children.size, dtype=bool)
        first[1:] = children[1:] != children[:-1]
        children = children[first]
        parent_rank = parent_rank[first]
        order = np.lexsort((children, degrees[children], parent_rank))
        frontier = children[order]
        visited[frontier] = True
        chunks.append(frontier)
    return chunks


def rcm_permutation_fast(graph: Graph) -> np.ndarray:
    """RCM permutation via generation-batched BFS."""
    undirected = graph.to_undirected()
    adjacency = undirected.adjacency
    n = adjacency.n_rows
    offsets = adjacency.row_offsets
    indices = adjacency.col_indices
    degrees = np.diff(offsets)

    visited = np.zeros(n, dtype=bool)
    chunks: List[np.ndarray] = []
    for candidate in np.argsort(degrees, kind="stable").tolist():
        if visited[candidate]:
            continue
        start = _pseudo_peripheral_fast(candidate, offsets, indices, degrees)
        chunks.extend(_component_bfs_fast(start, offsets, indices, degrees, visited))
    if not chunks:
        return np.empty(0, dtype=np.int64)
    visit = np.concatenate(chunks)[::-1]
    return stable_order_to_permutation(np.ascontiguousarray(visit))
