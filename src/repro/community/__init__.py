"""Community detection substrate.

RABBIT's core is modularity-maximizing community detection (paper
Section V-A).  This subpackage implements:

* :class:`CommunityAssignment` — a validated labels container;
* :func:`modularity` — Newman–Girvan modularity of an assignment;
* :func:`louvain` — the classic two-phase Louvain method (reference
  detector, used for cross-validation);
* :func:`rabbit_communities` — Rabbit-style single-visit incremental
  aggregation that also records the merge dendrogram whose depth-first
  traversal yields the RABBIT node ordering;
* :func:`detect` — the same detection run once per graph object, kept
  as labels plus the DFS ordering; RABBIT, RABBIT++, the runner's
  metrics and the predictor's features all read it.
"""

from repro.community.assignment import CommunityAssignment
from repro.community.dendrogram import Dendrogram
from repro.community.louvain import louvain
from repro.community.modularity import modularity
from repro.community.rabbit import Detection, RabbitResult, detect, rabbit_communities
from repro.community.sharded import (
    ShardedRabbitResult,
    shard_bounds,
    sharded_rabbit_communities,
)

__all__ = [
    "CommunityAssignment",
    "Dendrogram",
    "Detection",
    "RabbitResult",
    "ShardedRabbitResult",
    "detect",
    "louvain",
    "modularity",
    "rabbit_communities",
    "shard_bounds",
    "sharded_rabbit_communities",
]
