"""Batched GOrder: array-backed priority keys, argmax selection.

Bit-identical to the oracle :func:`repro.reorder.gorder._gorder_reference`,
which keeps a lazy max-heap of ``(-key, node)`` entries with stale-entry
reinsertion; a popped entry is accepted only when its key matches the
current array value, so every accepted pop returns the unplaced node
with the maximum current key, ties broken by smallest node id (heap
order on the second tuple element).  ``np.argmax`` over a key array
returns the first maximum — the same node — so the heap, its pushes on
every increment, and the invalid-entry churn can all be dropped: placed
nodes simply have a huge constant subtracted from their key (later
deltas keep applying; the offset dwarfs any achievable score mass, so
they can never win the argmax).

Window-delta application is identical (``np.add.at`` with +/-1 per
affected occurrence; integer adds commute, so only the multiset of
targets matters), and the affected-set expansion through capped
in-neighbor sibling lists is one vectorized CSR gather instead of a
Python loop.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

import numpy as np

from repro.graphs.graph import Graph

#: Subtracted from a node's key when it is placed.  Keys move by +/-1
#: per affected-set occurrence, bounded by total expansion mass (far
#: below 2^40 for any graph that fits in memory), so a placed node can
#: never reach an unplaced node's key range again.
_PLACED_OFFSET = np.int64(1) << np.int64(40)


def _capped_gather(
    offsets: np.ndarray,
    indices: np.ndarray,
    rows: np.ndarray,
    cap: Optional[int],
) -> np.ndarray:
    """Concatenate CSR rows, truncating each to its first ``cap`` entries."""
    starts = offsets[rows]
    counts = offsets[rows + 1] - starts
    if cap is not None:
        counts = np.minimum(counts, cap)
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=indices.dtype)
    rank = np.repeat(np.arange(rows.size, dtype=np.int64), counts)
    segment_base = np.cumsum(counts) - counts
    positions = np.arange(total, dtype=np.int64) - segment_base[rank] + starts[rank]
    return indices[positions]


def gorder_visit_fast(graph: Graph, window: int, max_expand: Optional[int]) -> np.ndarray:
    """Greedy GOrder visit sequence (old IDs in placement order)."""
    n = graph.n_nodes
    out_csr = graph.adjacency
    in_csr = graph.in_adjacency

    out_offsets = out_csr.row_offsets
    out_indices = out_csr.col_indices
    in_offsets = in_csr.row_offsets
    in_indices = in_csr.col_indices

    key = np.zeros(n, dtype=np.int64)

    def affected(z: int) -> np.ndarray:
        out_neighbors = out_indices[out_offsets[z]: out_offsets[z + 1]]
        in_neighbors = in_indices[in_offsets[z]: in_offsets[z + 1]]
        capped = in_neighbors
        if max_expand is not None and capped.size > max_expand:
            capped = capped[:max_expand]
        siblings = _capped_gather(out_offsets, out_indices, capped, max_expand)
        return np.concatenate([out_neighbors, in_neighbors, siblings])

    visit = np.empty(n, dtype=np.int64)
    window_queue: deque = deque()
    in_degrees = np.diff(in_offsets)
    seed = int(np.argmax(in_degrees))

    for position in range(n):
        v = seed if position == 0 else int(np.argmax(key))
        key[v] -= _PLACED_OFFSET
        visit[position] = v

        if len(window_queue) == window:
            z = window_queue.popleft()
            targets = affected(z)
            if targets.size:
                np.subtract.at(key, targets, 1)
        window_queue.append(v)
        targets = affected(v)
        if targets.size:
            np.add.at(key, targets, 1)
    return visit
