"""Technique registry: build reordering techniques by name.

The experiment drivers and the CLI refer to techniques by the names the
paper uses; this registry maps those names to configured instances.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.errors import ValidationError
from repro.reorder.base import ReorderingTechnique
from repro.reorder.boba import BobaOrder
from repro.reorder.degree import DBG, DegSort, HubSort
from repro.reorder.gorder import GOrder
from repro.reorder.louvain_order import LouvainOrder
from repro.reorder.rabbit import RabbitOrder
from repro.reorder.rabbitpp import HubPolicy, RabbitPlusPlus
from repro.reorder.rcm import ReverseCuthillMcKee
from repro.reorder.simple import OriginalOrder, RandomOrder

#: The six orderings of the paper's Figure 2, in presentation order,
#: plus the proposed RABBIT++.
PAPER_TECHNIQUES = (
    "random",
    "original",
    "degsort",
    "dbg",
    "gorder",
    "rabbit",
    "rabbit++",
)

_FACTORIES: Dict[str, Callable[[], ReorderingTechnique]] = {
    "original": OriginalOrder,
    "random": RandomOrder,
    "degsort": DegSort,
    "dbg": DBG,
    "hubsort": HubSort,
    "gorder": GOrder,
    "louvain": LouvainOrder,
    "rcm": ReverseCuthillMcKee,
    "rabbit": RabbitOrder,
    "boba": BobaOrder,
    "rabbit++": RabbitPlusPlus,
    "rabbit+insular": lambda: RabbitPlusPlus(
        group_insular=True, hub_policy=HubPolicy.NONE
    ),
    "rabbit+hubsort": lambda: RabbitPlusPlus(
        group_insular=False, hub_policy=HubPolicy.SORT
    ),
    "rabbit+hubgroup": lambda: RabbitPlusPlus(
        group_insular=False, hub_policy=HubPolicy.GROUP
    ),
    "rabbit+hubsort+insular": lambda: RabbitPlusPlus(
        group_insular=True, hub_policy=HubPolicy.SORT
    ),
    "rabbit++/hubs-first": lambda: RabbitPlusPlus(
        group_insular=True, hub_policy=HubPolicy.GROUP, segment_policy="hubs-first"
    ),
}


def available_techniques() -> List[str]:
    """All registered technique names, sorted."""
    return sorted(_FACTORIES)


def make_technique(name: str) -> ReorderingTechnique:
    """Instantiate a technique by its registry name."""
    try:
        factory = _FACTORIES[name]
    except KeyError:
        raise ValidationError(
            f"unknown reordering technique {name!r}; available: {available_techniques()}"
        ) from None
    return factory()
