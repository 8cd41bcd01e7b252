"""Rabbit-style incremental-aggregation community detection.

Rabbit Order (Arai et al., IPDPS 2016 — reference [1] of the paper)
replaces Louvain's repeated passes with a *single* pass of incremental
aggregation: vertices are visited in ascending degree order, and each
visited vertex merges its community into the neighboring community with
the highest modularity gain, eagerly aggregating the adjacency so later
(higher-degree) vertices operate on the partially coarsened graph.
Every merge is recorded in a :class:`~repro.community.Dendrogram`; its
depth-first traversal is the RABBIT node ordering.

This mirrors the paper's description: "RABBIT first performs community
detection on the matrices and then assigns community members
consecutive IDs", with the hierarchy preserved by the DFS.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from repro.community.assignment import CommunityAssignment
from repro.community.dendrogram import Dendrogram
from repro.community.fast.rabbit import rabbit_communities_fast
from repro.graphs.graph import Graph
from repro.obs import get_obs


@dataclass
class RabbitResult:
    """Outcome of Rabbit community detection.

    Attributes
    ----------
    assignment:
        Final node-to-community labels (compact).
    dendrogram:
        The merge forest; ``dendrogram.ordering()`` is the RABBIT
        permutation.
    n_merges:
        Number of accepted merges (``n_nodes - n_communities``).
    """

    assignment: CommunityAssignment
    dendrogram: Dendrogram
    n_merges: int


def rabbit_communities(graph: Graph, n_passes: int = 1) -> RabbitResult:
    """Run incremental aggregation on the undirected view of ``graph``.

    Parameters
    ----------
    graph:
        Input graph; symmetrized internally (self loops dropped).
    n_passes:
        Number of sweeps over the (surviving) vertices.  Rabbit proper
        is single-pass; extra passes trade pre-processing time for
        slightly higher modularity and are exposed for ablations.

    Runs the vectorized engine (:mod:`repro.community.fast.rabbit`),
    which is bit-identical to the :func:`_rabbit_reference` oracle.
    """
    undirected = graph.to_undirected()
    with get_obs().span("reorder-detect", detector="rabbit", n_nodes=undirected.n_nodes):
        return rabbit_communities_fast(undirected, n_passes=n_passes)


def _rabbit_reference(undirected: Graph, n_passes: int) -> RabbitResult:
    """The original dict-per-root implementation: the oracle for the
    vectorized engine, called by the differential tests and
    ``repro bench-reorder``."""
    adjacency = undirected.adjacency
    n = adjacency.n_rows
    dendrogram = Dendrogram(n)
    if n == 0:
        return RabbitResult(CommunityAssignment(np.empty(0, dtype=np.int64)), dendrogram, 0)

    # Union-find with path halving; parent[v] == v for live community roots.
    parent = np.arange(n, dtype=np.int64)

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = int(parent[v])
        return v

    # Per-root adjacency dictionaries.  Keys may be stale vertex IDs
    # (absorbed roots); they are resolved through `find` and compacted
    # on first touch after a merge.
    neighbor_weights: List[Dict[int, float]] = [dict() for _ in range(n)]
    offsets = adjacency.row_offsets
    indices = adjacency.col_indices
    values = adjacency.values
    for v in range(n):
        row = neighbor_weights[v]
        for k in range(int(offsets[v]), int(offsets[v + 1])):
            u = int(indices[k])
            if u != v:
                row[u] = row.get(u, 0.0) + float(values[k])

    degree = np.zeros(n, dtype=np.float64)
    row_of_entry = np.repeat(np.arange(n), np.diff(offsets))
    np.add.at(degree, row_of_entry, values)
    total_weight = float(degree.sum())  # 2m
    if total_weight == 0.0:
        return RabbitResult(
            CommunityAssignment(np.arange(n, dtype=np.int64)).compact(), dendrogram, 0
        )

    visit_order = np.argsort(degree, kind="stable")
    n_merges = 0
    for _ in range(max(1, n_passes)):
        merged_this_pass = 0
        for v_raw in visit_order:
            v = int(v_raw)
            if parent[v] != v:
                continue  # absorbed earlier; its edges live at its root
            candidates = _resolve_neighbors(neighbor_weights, parent, v, find)
            if not candidates:
                continue
            deg_v = degree[v]
            best_root = -1
            best_gain = 0.0
            for root, weight in candidates.items():
                gain = 2.0 / total_weight * (
                    weight - deg_v * degree[root] / total_weight
                )
                if gain > best_gain:
                    best_gain = gain
                    best_root = root
            if best_root < 0:
                continue
            _merge(neighbor_weights, parent, degree, dendrogram, v, best_root, find)
            n_merges += 1
            merged_this_pass += 1
        if merged_this_pass == 0:
            break

    labels = np.fromiter((find(v) for v in range(n)), dtype=np.int64, count=n)
    assignment = CommunityAssignment(labels).compact()
    return RabbitResult(assignment, dendrogram, n_merges)


def _resolve_neighbors(
    neighbor_weights: List[Dict[int, float]],
    parent: np.ndarray,
    v: int,
    find,
) -> Dict[int, float]:
    """Compact ``v``'s adjacency in place and return root -> weight."""
    row = neighbor_weights[v]
    resolved: Dict[int, float] = {}
    needs_rewrite = False
    for key, weight in row.items():
        root = find(key) if parent[key] != key else key
        if root != key:
            needs_rewrite = True
        if root != v:
            resolved[root] = resolved.get(root, 0.0) + weight
        else:
            needs_rewrite = True  # edge became internal; drop it
    if needs_rewrite:
        neighbor_weights[v] = dict(resolved)
    return resolved


def _merge(
    neighbor_weights: List[Dict[int, float]],
    parent: np.ndarray,
    degree: np.ndarray,
    dendrogram: Dendrogram,
    loser: int,
    winner: int,
    find,
) -> None:
    """Absorb community ``loser`` into community ``winner`` (both roots)."""
    parent[loser] = winner
    degree[winner] += degree[loser]
    dendrogram.absorb(winner, loser)
    target = neighbor_weights[winner]
    for key, weight in neighbor_weights[loser].items():
        root = find(key) if parent[key] != key else key
        if root == winner:
            continue
        target[root] = target.get(root, 0.0) + weight
    neighbor_weights[loser] = {}
