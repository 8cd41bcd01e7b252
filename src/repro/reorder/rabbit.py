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
