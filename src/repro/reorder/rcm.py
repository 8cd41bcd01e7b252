"""Reverse Cuthill–McKee ordering (paper ref. [23]).

The classic bandwidth-minimizing ordering: breadth-first traversal from
a pseudo-peripheral vertex, visiting neighbors in ascending degree
order, with the final order reversed.  Included because the paper lists
RCM among the techniques RABBIT was shown to match or exceed; useful as
an extra comparison point and for mesh-like matrices where RCM shines.
"""

from __future__ import annotations

import numpy as np

from repro.graphs.graph import Graph
from repro.reorder.base import ReorderingTechnique
from repro.reorder.fast.rcm import rcm_permutation_fast


class ReverseCuthillMcKee(ReorderingTechnique):
    """RCM over the undirected view, one BFS per connected component."""

    name = "rcm"

    def _compute(self, graph: Graph) -> np.ndarray:
        return rcm_permutation_fast(graph)

