"""RABBIT++ — the paper's enhanced community-based reordering (Section VI).

RABBIT++ starts from a RABBIT ordering and applies up to two
modifications (paper Figure 5):

1. **Insular-node grouping** — nodes whose every neighbor lies in their
   own community are grouped together, preserving RABBIT's relative
   order inside both the insular and non-insular groups.  The insular
   sub-matrix then enjoys near-compulsory traffic (Figure 6).
2. **Hub grouping** — hub nodes (degree above the graph average) are
   packed contiguously.  ``HubPolicy.GROUP`` keeps RABBIT's relative
   order among hubs (preserving residual community structure, the
   paper's winning choice), while ``HubPolicy.SORT`` orders hubs by
   descending in-degree (shown by the paper to consistently *hurt*).

The full Table II design space — {RABBIT, +HUBSORT, +HUBGROUP} x
{with, without insular grouping} — is expressible through the
constructor flags; :func:`table2_variants` enumerates all six cells.

Segment layout note: the paper's prose orders the modifications
"first group the insular nodes and then group the hub nodes".  Two
readings exist: hub grouping over the whole matrix
(``segment_policy="hubs-first"``: ``[hubs | insular non-hubs |
remaining]``) or over the non-insular remainder
(``segment_policy="insular-first"``: ``[insular | non-insular hubs |
remaining]``).  Table II of the paper decides it: with insular nodes
grouped, RABBIT+HUBGROUP matches plain RABBIT exactly (1.25x) on
insularity >= 0.95 matrices, which can only happen if hub grouping
leaves the (almost all insular) nodes untouched — i.e. the
insular-first reading.  That is therefore the default; hubs-first is
kept as an ablation.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.community.assignment import CommunityAssignment
from repro.community.rabbit import RabbitResult, rabbit_communities
from repro.errors import ValidationError
from repro.graphs.graph import Graph
from repro.metrics.insularity import insular_mask
from repro.reorder.base import ReorderingTechnique, stable_order_to_permutation


class HubPolicy(enum.Enum):
    """How (and whether) hub nodes are packed contiguously."""

    NONE = "none"
    SORT = "sort"
    GROUP = "group"


@dataclass
class RabbitPlusPlusResult:
    """Introspection data from the latest RABBIT++ computation."""

    rabbit: RabbitResult
    insular: np.ndarray
    hubs: np.ndarray

    @property
    def assignment(self) -> CommunityAssignment:
        return self.rabbit.assignment


class RabbitPlusPlus(ReorderingTechnique):
    """RABBIT ordering enhanced with insular and hub grouping.

    The default configuration (``group_insular=True``,
    ``hub_policy=HubPolicy.GROUP``) is the paper's RABBIT++.
    """

    def __init__(
        self,
        group_insular: bool = True,
        hub_policy: HubPolicy = HubPolicy.GROUP,
        segment_policy: str = "insular-first",
    ) -> None:
        if segment_policy not in ("hubs-first", "insular-first"):
            raise ValidationError(
                f"segment_policy must be 'hubs-first' or 'insular-first', got {segment_policy!r}"
            )
        if not isinstance(hub_policy, HubPolicy):
            raise ValidationError(f"hub_policy must be a HubPolicy, got {hub_policy!r}")
        self.group_insular = bool(group_insular)
        self.hub_policy = hub_policy
        self.segment_policy = segment_policy
        self.last_result: Optional[RabbitPlusPlusResult] = None

    @property
    def name(self) -> str:  # type: ignore[override]
        parts = ["rabbit"]
        if self.hub_policy is HubPolicy.SORT:
            parts.append("hubsort")
        elif self.hub_policy is HubPolicy.GROUP:
            parts.append("hubgroup")
        label = "+".join(parts)
        if self.group_insular and self.hub_policy is HubPolicy.GROUP:
            if self.segment_policy == "insular-first":
                return "rabbit++"
            return "rabbit++/hubs-first"
        if self.group_insular:
            label += "+insular"
        return label

    def _compute(self, graph: Graph) -> np.ndarray:
        return self.order(graph, rabbit_communities(graph))

    def order(self, graph: Graph, rabbit: RabbitResult) -> np.ndarray:
        """The ordering step: regroup RABBIT's order from ``rabbit``.

        Separate from detection so the differential tests can feed it
        the detection oracle's result.
        """
        rank = rabbit.dendrogram.ordering()  # old_id -> rabbit new_id

        n = graph.n_nodes
        insular = np.zeros(n, dtype=bool)
        if self.group_insular:
            insular = insular_mask(graph, rabbit.assignment)
        hubs = np.zeros(n, dtype=bool)
        if self.hub_policy is not HubPolicy.NONE:
            in_degrees = np.asarray(graph.in_degrees(), dtype=np.int64)
            hubs = in_degrees > graph.average_degree()
        else:
            in_degrees = np.zeros(n, dtype=np.int64)

        self.last_result = RabbitPlusPlusResult(rabbit, insular, hubs)

        segments = self._segments(insular, hubs)
        visit_parts: List[np.ndarray] = []
        for ids, sort_by_degree in segments:
            if ids.size == 0:
                continue
            if sort_by_degree:
                # Descending degree; rabbit rank breaks ties stably.
                order = np.lexsort((rank[ids], -in_degrees[ids]))
            else:
                order = np.argsort(rank[ids], kind="stable")
            visit_parts.append(ids[order])
        if not visit_parts:
            return np.arange(n, dtype=np.int64)
        visit = np.concatenate(visit_parts)
        return stable_order_to_permutation(visit)

    def _segments(
        self, insular: np.ndarray, hubs: np.ndarray
    ) -> List[Tuple[np.ndarray, bool]]:
        """Node-ID segments in output order; flag = sort hubs by degree."""
        n = insular.size
        everyone = np.arange(n, dtype=np.int64)
        sort_hubs = self.hub_policy is HubPolicy.SORT

        if self.hub_policy is HubPolicy.NONE and not self.group_insular:
            return [(everyone, False)]
        if self.hub_policy is HubPolicy.NONE:
            return [
                (np.flatnonzero(insular), False),
                (np.flatnonzero(~insular), False),
            ]
        if not self.group_insular:
            return [
                (np.flatnonzero(hubs), sort_hubs),
                (np.flatnonzero(~hubs), False),
            ]
        if self.segment_policy == "hubs-first":
            return [
                (np.flatnonzero(hubs), sort_hubs),
                (np.flatnonzero(insular & ~hubs), False),
                (np.flatnonzero(~insular & ~hubs), False),
            ]
        return [
            (np.flatnonzero(insular), False),
            (np.flatnonzero(hubs & ~insular), sort_hubs),
            (np.flatnonzero(~hubs & ~insular), False),
        ]


def table2_variants() -> List[Tuple[str, str, ReorderingTechnique]]:
    """The six Table II cells as (row label, column label, technique).

    Rows: RABBIT, RABBIT+HUBSORT, RABBIT+HUBGROUP.
    Columns: without / with insular-node grouping.
    """
    from repro.reorder.rabbit import RabbitOrder  # local import: avoids cycle

    variants: List[Tuple[str, str, ReorderingTechnique]] = []
    for hub_policy, row in (
        (HubPolicy.NONE, "RABBIT"),
        (HubPolicy.SORT, "RABBIT+HUBSORT"),
        (HubPolicy.GROUP, "RABBIT+HUBGROUP"),
    ):
        for group_insular, column in ((False, "without-insular"), (True, "with-insular")):
            if hub_policy is HubPolicy.NONE and not group_insular:
                technique: ReorderingTechnique = RabbitOrder()
            else:
                technique = RabbitPlusPlus(
                    group_insular=group_insular, hub_policy=hub_policy
                )
            variants.append((row, column, technique))
    return variants
