"""Matrix reordering techniques (paper Sections IV and VI).

Every technique consumes a :class:`repro.graphs.Graph` and produces a
permutation array ``perm`` with ``perm[old_id] == new_id``.  Techniques
characterized by the paper:

* ORIGINAL / RANDOM — baselines (Section IV-A);
* DEGSORT, DBG — degree-based (power-law leveraging);
* HUBSORT — hub packing (prior work, reused as a RABBIT++ building
  block);
* GORDER — window locality-score maximization;
* RABBIT — community-based (dendrogram DFS);
* RABBIT++ — the paper's contribution: RABBIT + insular-node grouping +
  hub grouping, plus the full Table II design space;
* RCM — the bandwidth-minimizing ordering the paper references;
* LOUVAIN, BOBA — a detector ablation and a lightweight bucket ordering
  from related work.
"""

from repro.reorder.base import ReorderingTechnique, TimedReordering, reorder_with_timing
from repro.reorder.boba import BobaOrder
from repro.reorder.simple import OriginalOrder, RandomOrder
from repro.reorder.degree import DBG, DegSort, HubSort
from repro.reorder.gorder import GOrder
from repro.reorder.rabbit import RabbitOrder
from repro.reorder.rabbitpp import HubPolicy, RabbitPlusPlus
from repro.reorder.rcm import ReverseCuthillMcKee
from repro.reorder.registry import (
    available_techniques,
    make_technique,
    PAPER_TECHNIQUES,
)

__all__ = [
    "BobaOrder",
    "DBG",
    "DegSort",
    "GOrder",
    "HubPolicy",
    "HubSort",
    "OriginalOrder",
    "PAPER_TECHNIQUES",
    "RabbitOrder",
    "RabbitPlusPlus",
    "RandomOrder",
    "ReorderingTechnique",
    "ReverseCuthillMcKee",
    "TimedReordering",
    "available_techniques",
    "make_technique",
    "reorder_with_timing",
]
