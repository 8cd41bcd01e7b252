"""RABBIT community-based reordering (paper Section IV-A, reference [1]).

Runs Rabbit-style incremental-aggregation community detection and
assigns IDs by depth-first traversal of the merge dendrogram, so
community members (and nested sub-communities) receive consecutive IDs.
"""

from __future__ import annotations

import numpy as np

from repro.community.rabbit import detect
from repro.graphs.graph import Graph
from repro.reorder.base import ReorderingTechnique


class RabbitOrder(ReorderingTechnique):
    """Community-based ordering via dendrogram DFS (shared, read-only)."""

    name = "rabbit"
    uses_detection = True

    def _compute(self, graph: Graph) -> np.ndarray:
        return detect(graph).ordering


class RabbitShardedOrder(ReorderingTechnique):
    """RABBIT ordering from two-level sharded detection.

    Same dendrogram-DFS placement as :class:`RabbitOrder`, but the
    detection phase runs :func:`~repro.community.sharded.
    sharded_rabbit_communities` — local Rabbit per vertex-range shard
    (optionally across processes) stitched by a coarse pass.  The
    permutation is a pure function of ``(graph, n_shards)``;
    ``jobs`` never changes it.
    """

    name = "rabbit-sharded"

    def __init__(self, n_shards: int = 4, jobs: int = 1) -> None:
        self.n_shards = int(n_shards)
        self.jobs = int(jobs)

    def _compute(self, graph: Graph) -> np.ndarray:
        # Deferred import: repro.community.sharded imports the pool
        # lazily but lives below this module in the import graph.
        from repro.community.sharded import sharded_rabbit_communities

        result = sharded_rabbit_communities(
            graph, n_shards=self.n_shards, jobs=self.jobs
        )
        return result.dendrogram.ordering()
