"""Degree-based reordering techniques (paper Section IV-A).

All three techniques here exploit skewed (power-law) degree
distributions by packing highly-connected vertices into few cache
lines.  Following the paper (and the prior work it cites), the degree
used is the *in-degree*, because push-style kernels such as SpMV gather
through incoming references.

* DEGSORT — full ID reassignment by descending in-degree.
* DBG — degree-based grouping (Faldu et al.): coarse power-of-two
  degree buckets, hottest bucket first, *original relative order kept
  inside each bucket* so any pre-existing locality survives.
* HUBSORT — hubs (degree > average) first in descending degree order,
  non-hubs keep their relative order.
"""

from __future__ import annotations

import numpy as np

from repro.graphs.graph import Graph
from repro.reorder.base import (
    ReorderingTechnique,
    integer_parameter,
    stable_order_to_permutation,
)


def _in_degrees(graph: Graph) -> np.ndarray:
    return np.asarray(graph.in_degrees(), dtype=np.int64)


class DegSort(ReorderingTechnique):
    """Assign IDs in decreasing order of in-degree (stable)."""

    name = "degsort"

    def _compute(self, graph: Graph) -> np.ndarray:
        degrees = _in_degrees(graph)
        # Stable sort on negated degree: ties keep original order.
        visit = np.argsort(-degrees, kind="stable")
        return stable_order_to_permutation(visit)


class DBG(ReorderingTechnique):
    """Degree-Based Grouping: coarse degree buckets, order kept within.

    Bucket ``b`` holds vertices with in-degree in ``[2^b, 2^(b+1))``
    (bucket 0 additionally holds degree-0 vertices).  Buckets are laid
    out from hottest (highest degree range) to coldest, and vertices
    within a bucket keep their original relative order.
    """

    name = "dbg"

    def __init__(self, n_buckets: int = 0) -> None:
        """``n_buckets = 0`` means as many power-of-two buckets as needed."""
        self.n_buckets = integer_parameter("n_buckets", n_buckets, 0)

    def _compute(self, graph: Graph) -> np.ndarray:
        degrees = _in_degrees(graph)
        # floor(log2(degree)) with degree 0 mapped to bucket 0.
        buckets = np.zeros(graph.n_nodes, dtype=np.int64)
        positive = degrees > 0
        buckets[positive] = np.floor(np.log2(degrees[positive])).astype(np.int64)
        if self.n_buckets:
            buckets = np.minimum(buckets, self.n_buckets - 1)
        # Hot buckets first; stable sort keeps original order within.
        visit = np.argsort(-buckets, kind="stable")
        return stable_order_to_permutation(visit)


class HubSort(ReorderingTechnique):
    """Hubs first, sorted by descending in-degree; others keep order."""

    name = "hubsort"

    def _compute(self, graph: Graph) -> np.ndarray:
        degrees = _in_degrees(graph)
        hubs = hub_mask(graph)
        hub_ids = np.flatnonzero(hubs)
        hub_visit = hub_ids[np.argsort(-degrees[hub_ids], kind="stable")]
        non_hub_visit = np.flatnonzero(~hubs)
        return stable_order_to_permutation(np.concatenate([hub_visit, non_hub_visit]))


def hub_mask(graph: Graph, degrees: np.ndarray = None) -> np.ndarray:
    """Boolean mask of hub nodes: in-degree above the average degree.

    The paper defines hubs as "nodes with degree greater than the
    average degree of the graph" (Section VI-A).
    """
    if degrees is None:
        degrees = _in_degrees(graph)
    return degrees > graph.average_degree()
