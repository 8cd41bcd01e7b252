"""Reordering technique interface."""

from __future__ import annotations

import abc
import operator
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from repro.community.rabbit import detect
from repro.errors import ValidationError
from repro.graphs.graph import Graph
from repro.obs import get_obs
from repro.sparse.permute import check_permutation


class ReorderingTechnique(abc.ABC):
    """A node-relabeling strategy.

    Subclasses implement :meth:`_compute`; :meth:`compute` wraps it with
    permutation validation so a buggy technique fails loudly instead of
    silently corrupting the matrix.
    """

    #: Short display name used in tables and the registry.
    name: str = "unnamed"

    #: Orders from the graph's shared RABBIT detection, whose seconds
    #: :func:`reorder_with_timing` then charges to it.
    uses_detection: ClassVar[bool] = False

    def compute(self, graph: Graph) -> np.ndarray:
        """Return a validated permutation ``perm[old_id] == new_id``."""
        perm = self._compute(graph)
        return check_permutation(perm, graph.n_nodes)

    @abc.abstractmethod
    def _compute(self, graph: Graph) -> np.ndarray:
        """Produce the raw permutation (validated by :meth:`compute`)."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


@dataclass
class TimedReordering:
    """A permutation together with its pre-processing wall time."""

    technique: str
    permutation: np.ndarray
    seconds: float


def reorder_with_timing(technique: ReorderingTechnique, graph: Graph) -> TimedReordering:
    """Compute a reordering and measure its pre-processing cost.

    The measured time backs the paper's Figure 9 (pre-processing cost
    vs. matrix size) and the amortization-iteration analysis.  Timing
    goes through the instrumentation clock (a ``reorder`` span when
    observability is enabled), so tests can inject a fake clock.
    A technique that orders from a detection pays its recorded seconds
    even on a memo hit, so RABBIT++ never costs less than RABBIT.
    """
    obs = get_obs()
    with obs.span("reorder", technique=technique.name, n_nodes=graph.n_nodes):
        detected = detect(graph).seconds if technique.uses_detection else 0.0
        start = obs.clock.now()
        permutation = technique.compute(graph)
        elapsed = obs.clock.now() - start
    return TimedReordering(technique.name, permutation, detected + elapsed)


def stable_order_to_permutation(visit_order: np.ndarray) -> np.ndarray:
    """Convert a visit order (old IDs in new-ID sequence) to ``perm``."""
    perm = np.empty(visit_order.size, dtype=np.int64)
    perm[visit_order] = np.arange(visit_order.size, dtype=np.int64)
    return perm


def integer_parameter(name: str, value: object, minimum: int) -> int:
    """``value`` as an ``int`` no smaller than ``minimum``.

    Python and NumPy integers pass through :func:`operator.index`;
    booleans, floats and anything else raise :class:`ValidationError`
    naming the parameter, so ``window=2.5`` cannot quietly run as 2.
    """
    if isinstance(value, (bool, np.bool_)):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    try:
        number = operator.index(value)
    except TypeError:
        raise ValidationError(f"{name} must be an integer, got {value!r}") from None
    if number < minimum:
        raise ValidationError(f"{name} must be >= {minimum}, got {number}")
    return number
