"""Reordering oracles: the per-node loops the vectorized engines replaced.

- :func:`gorder_reference` — lazy max-heap GOrder, the oracle for
  :mod:`repro.reorder.fast.gorder`;
- :func:`rcm_reference` — per-parent BFS Reverse Cuthill–McKee, the
  oracle for :mod:`repro.reorder.fast.rcm`;
- :func:`boba_reference` — sequential per-node BOBA anchors, the oracle
  for ``repro.reorder.boba._boba_fast``;
- :func:`oracle_detection` — RABBIT detection by the dict-per-root
  oracle (:mod:`tests.oracles.community`).

:data:`ORACLES` maps each technique with a vectorized engine to the
permutation that engine must reproduce bit-for-bit.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.community.rabbit import RabbitResult
from repro.graphs.graph import Graph
from repro.reorder.base import stable_order_to_permutation
from repro.reorder.boba import _hub_order
from repro.reorder.gorder import GOrder
from repro.reorder.rabbitpp import RabbitPlusPlus
from tests.oracles.community import rabbit_reference


def oracle_detection(graph: Graph) -> RabbitResult:
    """RABBIT detection by the dict-per-root oracle."""
    return rabbit_reference(graph.to_undirected())


# -- GOrder -------------------------------------------------------------


def gorder_reference(graph: Graph, window: int, max_expand: Optional[int]) -> np.ndarray:
    """Greedy GOrder with a lazy ``(-key, node)`` max-heap."""
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


def _gorder_oracle(graph: Graph) -> np.ndarray:
    technique = GOrder()
    return gorder_reference(graph, technique.window, technique.max_expand)


# -- RCM ----------------------------------------------------------------


def rcm_reference(graph: Graph) -> np.ndarray:
    """Reverse Cuthill–McKee with one per-parent BFS per component."""
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


# -- BOBA ---------------------------------------------------------------


def boba_reference(graph: Graph) -> np.ndarray:
    """BOBA placement with a sequential per-node anchor loop."""
    n = graph.n_nodes
    if n == 0:
        return np.empty(0, dtype=np.int64)
    degrees, hubs, hub_visit = _hub_order(graph)
    hub_pos = {int(vertex): pos for pos, vertex in enumerate(hub_visit)}
    n_hubs = hub_visit.size

    keyed: List[Tuple[int, int]] = []  # (placement key, node) for non-hubs
    for vertex in range(n):
        if hubs[vertex]:
            continue
        anchor = -1
        for neighbor in graph.neighbors(vertex):
            u = int(neighbor)
            if hubs[u] and (anchor < 0 or degrees[u] > degrees[anchor]):
                anchor = u
        key = hub_pos[anchor] if anchor >= 0 else n_hubs
        keyed.append((key, vertex))
    keyed.sort()  # stable not required: (key, vertex) pairs are unique
    visit = np.concatenate(
        [hub_visit, np.asarray([vertex for _, vertex in keyed], dtype=np.int64)]
    ) if keyed else hub_visit
    return stable_order_to_permutation(visit)


#: Technique name -> the oracle permutation its product engine must
#: reproduce bit-for-bit.  rabbit and rabbit++ run oracle detection
#: followed by the technique's own ordering step.
def _rabbitpp_oracle(graph: Graph) -> np.ndarray:
    oracle = oracle_detection(graph)
    return RabbitPlusPlus().order(graph, oracle.assignment, oracle.dendrogram.ordering())


ORACLES: Dict[str, Callable[[Graph], np.ndarray]] = {
    "rabbit": lambda graph: oracle_detection(graph).dendrogram.ordering(),
    "rabbit++": _rabbitpp_oracle,
    "rcm": rcm_reference,
    "gorder": _gorder_oracle,
    "boba": boba_reference,
}
