"""Community assignment container."""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.errors import ShapeError, ValidationError
from repro.sparse.coo import sorted_unique


class CommunityAssignment:
    """Maps each node to a community label.

    Labels are arbitrary non-negative integers; :meth:`compact` yields
    an equivalent assignment with labels renumbered to ``0..k-1`` in
    order of first appearance.
    """

    __slots__ = ("labels",)

    def __init__(self, labels: object) -> None:
        array = np.asarray(labels)
        if array.ndim != 1:
            raise ShapeError(f"labels must be one-dimensional, got shape {array.shape}")
        if array.size and not np.issubdtype(array.dtype, np.integer):
            raise ValidationError(f"labels must be integers, got dtype {array.dtype}")
        array = array.astype(np.int64, copy=False)
        if array.size and array.min() < 0:
            raise ValidationError(f"labels must be non-negative, got min {array.min()}")
        self.labels = array

    @property
    def n_nodes(self) -> int:
        return int(self.labels.size)

    @property
    def n_communities(self) -> int:
        """Number of distinct labels."""
        if self.labels.size == 0:
            return 0
        return int(sorted_unique(self.labels).size)

    def compact(self) -> "CommunityAssignment":
        """Renumber labels to ``0..k-1`` by first appearance."""
        if self.labels.size == 0:
            return CommunityAssignment(self.labels.copy())
        _, first_index, inverse = np.unique(
            self.labels, return_index=True, return_inverse=True
        )
        # np.unique sorts labels; re-rank by first appearance instead.
        appearance_rank = np.argsort(np.argsort(first_index))
        return CommunityAssignment(appearance_rank[inverse])

    def sizes(self) -> np.ndarray:
        """Size of each community, indexed by compact label."""
        compacted = self.compact()
        return np.bincount(compacted.labels)

    def average_size(self) -> float:
        sizes = self.sizes()
        if sizes.size == 0:
            return 0.0
        return float(sizes.mean())

    def largest_size(self) -> int:
        sizes = self.sizes()
        if sizes.size == 0:
            return 0
        return int(sizes.max())

    def members(self) -> Dict[int, np.ndarray]:
        """Mapping of compact label to member node IDs (ascending)."""
        compacted = self.compact()
        order = np.argsort(compacted.labels, kind="stable")
        boundaries = np.flatnonzero(np.diff(compacted.labels[order])) + 1
        groups: List[np.ndarray] = np.split(order, boundaries)
        return {label: group for label, group in enumerate(groups)}

    def __eq__(self, other: object) -> bool:
        """Partition equality (invariant to label renaming)."""
        if not isinstance(other, CommunityAssignment):
            return NotImplemented
        if self.n_nodes != other.n_nodes:
            return False
        return bool(
            np.array_equal(self.compact().labels, other.compact().labels)
        )

    def __hash__(self) -> int:  # pragma: no cover - mutable container
        raise TypeError("CommunityAssignment is not hashable")

    def __repr__(self) -> str:
        return (
            f"CommunityAssignment(n_nodes={self.n_nodes}, "
            f"n_communities={self.n_communities})"
        )
