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


def rabbit_communities(graph: Graph) -> RabbitResult:
    """Run incremental aggregation on the undirected view of ``graph``.

    Parameters
    ----------
    graph:
        Input graph; symmetrized internally (self loops dropped).

    Runs the vectorized engine (:mod:`repro.community.fast.rabbit`),
    which is bit-identical to the dict-per-root oracle in
    ``tests/oracles/community.py``.
    """
    undirected = graph.to_undirected()
    with get_obs().span("reorder-detect", detector="rabbit", n_nodes=undirected.n_nodes):
        return rabbit_communities_fast(undirected)

