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
:func:`detect` runs it once per :class:`Graph` object for all consumers.
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass

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


def rabbit_communities(graph: Graph) -> RabbitResult:
    """Run incremental aggregation on the undirected view of ``graph``.

    Parameters
    ----------
    graph:
        Input graph; symmetrized internally (self loops dropped).

    Runs the vectorized engine (:mod:`repro.community.fast.rabbit`),
    which is bit-identical to the dict-per-root oracle in
    ``tests/oracles/community.py``.  Uncached: consumers use :func:`detect`.
    """
    undirected = graph.to_undirected()
    with get_obs().span("reorder-detect", detector="rabbit", n_nodes=undirected.n_nodes):
        return rabbit_communities_fast(undirected)


@dataclass(frozen=True)
class Detection:
    """What consumers read of one graph's detection: the labels, the
    read-only dendrogram-DFS permutation, and the seconds both took on
    the instrumentation clock (the dendrogram itself is not kept)."""

    assignment: CommunityAssignment
    ordering: np.ndarray
    seconds: float


# Weak keys: the memo never keeps a graph (a serve upload's) alive.
_memo: "weakref.WeakKeyDictionary[Graph, Detection]" = weakref.WeakKeyDictionary()
_memo_lock = threading.Lock()


def detect(graph: Graph) -> Detection:
    """RABBIT detection of ``graph``, run at most once per graph object.

    Two threads racing on one graph may both detect; the first result
    stored wins, and detection is deterministic, so both are equal.
    """
    with _memo_lock:
        found = _memo.get(graph)
    if found is not None:
        return found
    clock = get_obs().clock
    start = clock.now()
    result = rabbit_communities(graph)
    ordering = result.dendrogram.ordering()
    seconds = clock.now() - start
    ordering.setflags(write=False)
    detection = Detection(result.assignment, ordering, seconds)
    with _memo_lock:
        return _memo.setdefault(graph, detection)
