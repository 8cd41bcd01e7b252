"""GORDER: greedy window locality-score maximization (paper ref. [41]).

GOrder (Wei et al., SIGMOD 2016) seeks a permutation maximizing

    F(order) = sum over pairs (u, v) within a sliding window of
               S_s(u, v) + S_n(u, v)

where ``S_n(u, v)`` is 1 when u and v are adjacent and ``S_s(u, v)``
counts their common in-neighbors.  The greedy algorithm places one node
at a time, always picking the unplaced node with the highest score
against the current window.  Scores are kept incrementally as one
integer key per node, raised when a node enters the window and lowered
when it leaves, and an ``argmax`` over the keys picks the next node
(:mod:`repro.reorder.fast.gorder`); the original's lazy max-heap
survives only as the test oracle.

Faithful to the original, this is by far the most expensive technique
here — which is exactly the trade-off the paper's Figure 9 quantifies.
One approximation keeps worst-case inputs tractable: when updating
sibling scores through a node's in-neighbors, each expansion list is
capped at ``max_expand`` entries (hub in-neighbors shared by tens of
thousands of nodes contribute near-uniform score mass, so truncating
them barely changes the argmax).  Set ``max_expand=None`` to disable.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.graphs.graph import Graph
from repro.reorder.base import (
    ReorderingTechnique,
    integer_parameter,
    stable_order_to_permutation,
)
from repro.reorder.fast.gorder import gorder_visit_fast


class GOrder(ReorderingTechnique):
    """Greedy GOrder with window ``w`` (paper and original use w = 5)."""

    name = "gorder"

    def __init__(self, window: int = 5, max_expand: Optional[int] = 64) -> None:
        self.window = integer_parameter("window", window, 1)
        self.max_expand = (
            None if max_expand is None else integer_parameter("max_expand", max_expand, 1)
        )

    def _compute(self, graph: Graph) -> np.ndarray:
        if graph.n_nodes == 0:
            return np.empty(0, dtype=np.int64)
        visit = gorder_visit_fast(graph, self.window, self.max_expand)
        return stable_order_to_permutation(visit)

