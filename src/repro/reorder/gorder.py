"""GORDER: greedy window locality-score maximization (paper ref. [41]).

GOrder (Wei et al., SIGMOD 2016) seeks a permutation maximizing

    F(order) = sum over pairs (u, v) within a sliding window of
               S_s(u, v) + S_n(u, v)

where ``S_n(u, v)`` is 1 when u and v are adjacent and ``S_s(u, v)``
counts their common in-neighbors.  The greedy algorithm places one node
at a time, always picking the unplaced node with the highest score
against the current window, maintained incrementally with a lazy
max-heap.

Faithful to the original, this is by far the most expensive technique
here — which is exactly the trade-off the paper's Figure 9 quantifies.
One approximation keeps worst-case inputs tractable: when updating
sibling scores through a node's in-neighbors, each expansion list is
capped at ``max_expand`` entries (hub in-neighbors shared by tens of
thousands of nodes contribute near-uniform score mass, so truncating
them barely changes the argmax).  Set ``max_expand=None`` to disable.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import List, Optional

import numpy as np

from repro.errors import ValidationError
from repro.graphs.graph import Graph
from repro.reorder.base import ReorderingTechnique, stable_order_to_permutation
from repro.reorder.fast.gorder import gorder_visit_fast


class GOrder(ReorderingTechnique):
    """Greedy GOrder with window ``w`` (paper and original use w = 5)."""

    name = "gorder"

    def __init__(self, window: int = 5, max_expand: Optional[int] = 64) -> None:
        if window < 1:
            raise ValidationError(f"window must be >= 1, got {window}")
        if max_expand is not None and max_expand < 1:
            raise ValidationError(f"max_expand must be >= 1 or None, got {max_expand}")
        self.window = int(window)
        self.max_expand = max_expand

    def _compute(self, graph: Graph) -> np.ndarray:
        if graph.n_nodes == 0:
            return np.empty(0, dtype=np.int64)
        visit = gorder_visit_fast(graph, self.window, self.max_expand)
        return stable_order_to_permutation(visit)


def _gorder_reference(graph: Graph, window: int, max_expand: Optional[int]) -> np.ndarray:
    """The original lazy-heap implementation: the oracle for the
    vectorized engine, called by the differential tests and
    ``repro bench-reorder``."""
    n = graph.n_nodes
    if n == 0:
        return np.empty(0, dtype=np.int64)
    out_csr = graph.adjacency
    in_csr = graph.in_adjacency

    out_offsets = out_csr.row_offsets
    out_indices = out_csr.col_indices
    in_offsets = in_csr.row_offsets
    in_indices = in_csr.col_indices

    key = np.zeros(n, dtype=np.int64)
    placed = np.zeros(n, dtype=bool)
    heap: List = [(0, v) for v in range(n)]
    # Already sorted by (0, v); heapq accepts any heap-ordered list.

    def affected(z: int) -> np.ndarray:
        """Nodes whose window score changes when z enters/leaves."""
        parts = [
            out_indices[out_offsets[z]: out_offsets[z + 1]],
            in_indices[in_offsets[z]: in_offsets[z + 1]],
        ]
        in_neighbors = in_indices[in_offsets[z]: in_offsets[z + 1]]
        if max_expand is not None and in_neighbors.size > max_expand:
            in_neighbors = in_neighbors[: max_expand]
        for x in in_neighbors:
            siblings = out_indices[out_offsets[x]: out_offsets[x + 1]]
            if max_expand is not None and siblings.size > max_expand:
                siblings = siblings[: max_expand]
            parts.append(siblings)
        return np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)

    visit = np.empty(n, dtype=np.int64)
    in_window: deque = deque()
    # Seed with the maximum in-degree node, as in the original.
    in_degrees = np.diff(in_offsets)
    seed = int(np.argmax(in_degrees))

    for position in range(n):
        if position == 0:
            v = seed
        else:
            v = _pop_best(heap, key, placed)
        placed[v] = True
        visit[position] = v

        if len(in_window) == window:
            z = in_window.popleft()
            _apply_delta(affected(int(z)), -1, key, placed, heap)
        in_window.append(v)
        _apply_delta(affected(v), +1, key, placed, heap)
    return stable_order_to_permutation(visit)


def _pop_best(heap: List, key: np.ndarray, placed: np.ndarray) -> int:
    """Pop the valid maximum-key node (lazy heap discipline).

    Entries are ``(-key_at_push, node)``.  Stale-high entries (key
    decreased since push) are re-inserted with the current key;
    stale-low entries cannot exist because every increment pushes.
    """
    while heap:
        neg_key, v = heapq.heappop(heap)
        if placed[v]:
            continue
        if -neg_key != key[v]:
            heapq.heappush(heap, (-int(key[v]), v))
            continue
        return int(v)
    # Heap exhausted (graph smaller than bookkeeping assumed):
    # fall back to the first unplaced node.
    remaining = np.flatnonzero(~placed)
    return int(remaining[0])


def _apply_delta(
    targets: np.ndarray,
    delta: int,
    key: np.ndarray,
    placed: np.ndarray,
    heap: List,
) -> None:
    if targets.size == 0:
        return
    np.add.at(key, targets, delta)
    if delta > 0:
        # Only increments need fresh heap entries; decrements are
        # handled lazily at pop time.
        for v in np.unique(targets):
            if not placed[v]:
                heapq.heappush(heap, (-int(key[v]), int(v)))
