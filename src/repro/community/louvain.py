"""Louvain community detection.

The classic two-phase method Rabbit's incremental aggregation was
derived from: repeat (1) local moving — each node greedily moves to the
neighboring community with the highest modularity gain until no move
improves — and (2) aggregation — contract each community to a single
node — until the partition stops changing.  Used to cross-validate the
Rabbit detector's modularity and in detector ablations.

The per-node dict loop below is the only engine: the epsilon-gated
gain scan is sequential per node, and a vectorized version lost to it
below multi-million-edge graphs (0.47x-0.62x on R-MAT scales 10 and
13, ~1.1x only at R-MAT scale 16).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from repro.community.assignment import CommunityAssignment
from repro.community.modularity import modularity_csr
from repro.graphs.graph import Graph
from repro.obs import get_obs


@dataclass
class LouvainResult:
    """Final assignment plus the per-level modularity trajectory."""

    assignment: CommunityAssignment
    modularity: float
    level_modularities: List[float]


def louvain(graph: Graph, max_levels: int = 10, min_gain: float = 1e-9) -> LouvainResult:
    """Run Louvain on the undirected view of ``graph``.

    Deterministic: nodes are visited in ascending ID order within each
    local-moving sweep.
    """
    undirected = graph.to_undirected()
    with get_obs().span("reorder-detect", detector="louvain", n_nodes=undirected.n_nodes):
        return _louvain(undirected, max_levels, min_gain)


def _louvain(undirected: Graph, max_levels: int, min_gain: float) -> LouvainResult:
    adjacency = undirected.adjacency
    n = adjacency.n_rows
    if n == 0:
        empty = CommunityAssignment(np.empty(0, dtype=np.int64))
        return LouvainResult(empty, 0.0, [])

    # Current-level graph as adjacency dicts + self-loop weights.
    neighbor_weights: List[Dict[int, float]] = [dict() for _ in range(n)]
    offsets = adjacency.row_offsets
    indices = adjacency.col_indices
    values = adjacency.values
    self_loops = np.zeros(n, dtype=np.float64)
    for v in range(n):
        row = neighbor_weights[v]
        for k in range(int(offsets[v]), int(offsets[v + 1])):
            u = int(indices[k])
            if u == v:
                self_loops[v] += float(values[k])
            else:
                row[u] = row.get(u, 0.0) + float(values[k])

    total_weight = self_loops.sum() + sum(
        sum(row.values()) for row in neighbor_weights
    )
    if total_weight == 0.0:
        singleton = CommunityAssignment(np.arange(n, dtype=np.int64))
        return LouvainResult(singleton, 0.0, [])

    # node_map[v] = community of original node v (composed across levels).
    node_map = np.arange(n, dtype=np.int64)
    level_modularities: List[float] = []

    for _ in range(max_levels):
        labels, improved = _local_moving(
            neighbor_weights, self_loops, total_weight, min_gain
        )
        node_map = labels[node_map]
        level_modularities.append(
            modularity_csr(adjacency, node_map)
        )
        if not improved:
            break
        neighbor_weights, self_loops = _aggregate(neighbor_weights, self_loops, labels)
        if len(neighbor_weights) <= 1:
            break

    assignment = CommunityAssignment(node_map).compact()
    return LouvainResult(
        assignment,
        modularity_csr(adjacency, assignment.labels),
        level_modularities,
    )


def _local_moving(
    neighbor_weights: List[Dict[int, float]],
    self_loops: np.ndarray,
    total_weight: float,
    min_gain: float,
) -> "tuple[np.ndarray, bool]":
    """Phase 1: greedy node moves.  Returns (compact labels, improved?)."""
    n = len(neighbor_weights)
    labels = np.arange(n, dtype=np.int64)
    degree = self_loops + np.array(
        [sum(row.values()) for row in neighbor_weights], dtype=np.float64
    )
    community_degree = degree.copy()
    improved_any = False
    for _ in range(n):  # sweeps; bounded, but typically exits in a few
        moved = 0
        for v in range(n):
            current = int(labels[v])
            deg_v = degree[v]
            # Edge weight from v to each neighboring community.
            weight_to: Dict[int, float] = {}
            for u, w in neighbor_weights[v].items():
                community = int(labels[u])
                weight_to[community] = weight_to.get(community, 0.0) + w
            # Remove v from its community for unbiased comparison.
            community_degree[current] -= deg_v
            base = weight_to.get(current, 0.0)
            best_community = current
            best_gain = 0.0
            for community, weight in weight_to.items():
                if community == current:
                    continue
                gain = (
                    (weight - base)
                    - deg_v
                    * (community_degree[community] - community_degree[current])
                    / total_weight
                ) * (2.0 / total_weight)
                if gain > best_gain + min_gain:
                    best_gain = gain
                    best_community = community
            labels[v] = best_community
            community_degree[best_community] += deg_v
            if best_community != current:
                moved += 1
        if moved == 0:
            break
        improved_any = True
    # Compact labels.
    unique, inverse = np.unique(labels, return_inverse=True)
    return inverse.astype(np.int64), improved_any


def _aggregate(
    neighbor_weights: List[Dict[int, float]],
    self_loops: np.ndarray,
    labels: np.ndarray,
) -> "tuple[List[Dict[int, float]], np.ndarray]":
    """Phase 2: contract communities into super-nodes."""
    n_communities = int(labels.max()) + 1
    new_rows: List[Dict[int, float]] = [dict() for _ in range(n_communities)]
    new_loops = np.zeros(n_communities, dtype=np.float64)
    for v, row in enumerate(neighbor_weights):
        cv = int(labels[v])
        new_loops[cv] += self_loops[v]
        target = new_rows[cv]
        for u, w in row.items():
            cu = int(labels[u])
            if cu == cv:
                new_loops[cv] += w
            else:
                target[cu] = target.get(cu, 0.0) + w
    return new_rows, new_loops
