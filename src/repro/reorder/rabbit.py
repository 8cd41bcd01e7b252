"""RABBIT community-based reordering (paper Section IV-A, reference [1]).

Runs Rabbit-style incremental-aggregation community detection and
assigns IDs by depth-first traversal of the merge dendrogram, so
community members (and nested sub-communities) receive consecutive IDs.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.community.rabbit import RabbitResult, rabbit_communities
from repro.graphs.graph import Graph
from repro.reorder.base import ReorderingTechnique


class RabbitOrder(ReorderingTechnique):
    """Community-based ordering via dendrogram DFS.

    Parameters
    ----------
    n_passes:
        Detection sweeps (1 = faithful single-pass Rabbit).
    """

    name = "rabbit"

    def __init__(self, n_passes: int = 1) -> None:
        self.n_passes = int(n_passes)
        #: Detection output of the most recent :meth:`compute` call;
        #: exposed because RABBIT++ and the insularity metrics reuse the
        #: community assignment that produced the ordering.
        self.last_result: Optional[RabbitResult] = None
        #: The graph object ``last_result`` was detected on.
        self._last_graph: Optional[Graph] = None

    def _compute(self, graph: Graph) -> np.ndarray:
        self.last_result = rabbit_communities(graph, n_passes=self.n_passes)
        self._last_graph = graph
        return self.last_result.dendrogram.ordering()

    def detect(self, graph: Graph) -> RabbitResult:
        """Run (or reuse) detection without computing the permutation.

        Reuses the most recent result only when it came from this very
        graph object: another graph of the same size gets its own run.
        """
        if self.last_result is None or self._last_graph is not graph:
            self.last_result = rabbit_communities(graph, n_passes=self.n_passes)
            self._last_graph = graph
        return self.last_result


class RabbitShardedOrder(ReorderingTechnique):
    """RABBIT ordering from two-level sharded detection.

    Same dendrogram-DFS placement as :class:`RabbitOrder`, but the
    detection phase runs :func:`~repro.community.sharded.
    sharded_rabbit_communities` — local Rabbit per vertex-range shard
    (optionally across processes) stitched by a coarse pass.  The
    permutation is a pure function of ``(graph, n_shards, n_passes)``;
    ``jobs`` never changes it.
    """

    name = "rabbit-sharded"

    def __init__(self, n_shards: int = 4, jobs: int = 1, n_passes: int = 1) -> None:
        self.n_shards = int(n_shards)
        self.jobs = int(jobs)
        self.n_passes = int(n_passes)
        #: Detection output of the most recent :meth:`compute` call.
        self.last_result = None

    def _compute(self, graph: Graph) -> np.ndarray:
        # Deferred import: repro.community.sharded imports the pool
        # lazily but lives below this module in the import graph.
        from repro.community.sharded import sharded_rabbit_communities

        result = sharded_rabbit_communities(
            graph, n_shards=self.n_shards, jobs=self.jobs, n_passes=self.n_passes
        )
        self.last_result = result
        return result.dendrogram.ordering()
