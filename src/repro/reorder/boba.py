"""BOBA-style parallel bucket placement (arXiv 2306.10410).

BOBA's observation is that a *lightweight* ordering — one parallel pass
of bucket placement, no community detection — lands within a few
percent of heavyweight orders at a tiny fraction of their cost.  This
adaptation composes the two keys the paper's corpus analysis says
matter:

* **degree key** (hot buckets): hubs (in-degree above the graph
  average, the paper's Section VI-A definition) are placed first,
  grouped into DBG-style power-of-two degree buckets, hottest bucket
  first, original order kept within a bucket;
* **community key** (anchors): every non-hub is keyed by its *anchor* —
  the highest-in-degree hub among its out-neighbors (first occurrence
  wins ties) — and non-hubs sharing an anchor are laid out
  consecutively, in the order their anchors were placed.  Non-hubs with
  no hub neighbor keep their original relative order at the tail.

Both passes are bucket placements (stable counting sorts), which is
what makes the technique embarrassingly parallel: anchor selection is
independent per row, so the row range shards across
:func:`repro.parallel.pool.map_in_pool` workers, and the final
placement is a stable sort of per-node integer keys — a pure function
of the graph.  The permutation is therefore **identical for every
``n_shards`` and ``jobs`` value**, and the vectorized engine is
bit-identical to the plain-Python-loop oracle in
``tests/oracles/reorder.py``; both facts are locked by differential tests.

The row scan touches the CSR arrays once, sequentially, in bounded
blocks — memmap-backed matrices stream through without materializing.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.graphs.graph import Graph
from repro.obs import get_obs
from repro.reorder.base import (
    ReorderingTechnique,
    integer_parameter,
    stable_order_to_permutation,
)
from repro.sparse.csr import CSRMatrix
from repro.sparse.memmap import stream_row_blocks

#: Max adjacency entries materialized per block in the fast anchor scan.
_SCAN_BLOCK = 4 << 20


class BobaOrder(ReorderingTechnique):
    """Parallel two-level bucket placement over degree/anchor keys.

    Parameters
    ----------
    n_shards:
        Row-range shards for the anchor scan.  Any value produces the
        identical permutation; more shards means smaller parallel work
        units.
    jobs:
        Worker processes for the anchor scan (``1`` = in-process).
        Never affects the result.
    """

    name = "boba"

    def __init__(self, n_shards: int = 1, jobs: int = 1) -> None:
        self.n_shards = integer_parameter("n_shards", n_shards, 1)
        self.jobs = integer_parameter("jobs", jobs, 1)

    def _compute(self, graph: Graph) -> np.ndarray:
        with get_obs().span(
            "boba-place", n_nodes=graph.n_nodes, n_shards=self.n_shards, jobs=self.jobs
        ):
            return _boba_fast(graph, self.n_shards, self.jobs)


def _hub_order(graph: Graph) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Shared key pass: ``(in_degrees, hub mask, hub visit order)``."""
    degrees = np.asarray(graph.in_degrees(), dtype=np.int64)
    hubs = degrees > graph.average_degree()
    buckets = np.zeros(graph.n_nodes, dtype=np.int64)
    positive = degrees > 0
    buckets[positive] = np.floor(np.log2(degrees[positive])).astype(np.int64)
    hub_ids = np.flatnonzero(hubs)
    hub_visit = hub_ids[np.argsort(-buckets[hub_ids], kind="stable")]
    return degrees, hubs, hub_visit


def _boba_fast(graph: Graph, n_shards: int, jobs: int) -> np.ndarray:
    n = graph.n_nodes
    if n == 0:
        return np.empty(0, dtype=np.int64)
    degrees, hubs, hub_visit = _hub_order(graph)
    hub_pos = np.full(n, -1, dtype=np.int64)
    hub_pos[hub_visit] = np.arange(hub_visit.size, dtype=np.int64)

    keys = _anchor_keys(
        graph.adjacency, degrees, hubs, hub_pos, int(hub_visit.size), n_shards, jobs
    )
    nonhub_ids = np.flatnonzero(~hubs)
    nonhub_visit = nonhub_ids[np.argsort(keys[nonhub_ids], kind="stable")]
    visit = np.concatenate([hub_visit, nonhub_visit])
    return stable_order_to_permutation(visit)


def _anchor_keys(
    adjacency: CSRMatrix,
    degrees: np.ndarray,
    hubs: np.ndarray,
    hub_pos: np.ndarray,
    n_hubs: int,
    n_shards: int,
    jobs: int,
) -> np.ndarray:
    """Per-node placement key: anchor's hub position, ``n_hubs`` if none.

    Rows are independent, so the computation shards by row range.  With
    ``jobs == 1`` shards stream through in-process (nothing staged);
    with ``jobs > 1`` each shard's CSR slice ships to a pool worker.
    """
    from repro.community.sharded import shard_bounds
    from repro.parallel.pool import map_in_pool

    n = adjacency.n_rows
    bounds = shard_bounds(n, n_shards)
    keys = np.empty(n, dtype=np.int64)
    if jobs <= 1 or len(bounds) <= 1:
        for lo, hi in bounds:
            keys[lo:hi] = _shard_anchor_keys(
                (_shard_slice(adjacency, lo, hi), degrees, hub_pos, n_hubs)
            )
    else:
        payloads = [
            (_shard_slice(adjacency, lo, hi), degrees, hub_pos, n_hubs)
            for lo, hi in bounds
        ]
        for (lo, hi), part in zip(bounds, map_in_pool(_shard_anchor_keys, payloads, jobs=jobs)):
            keys[lo:hi] = part
    # ``hubs`` rows get scanned too (their key is unused); mask is only
    # consulted by the caller, so nothing to fix up here.
    del hubs
    return keys


def _shard_slice(
    adjacency: CSRMatrix, lo: int, hi: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Rebased ``(row_offsets, col_indices)`` for rows ``[lo, hi)``."""
    start = int(adjacency.row_offsets[lo])
    stop = int(adjacency.row_offsets[hi])
    offsets = np.asarray(adjacency.row_offsets[lo: hi + 1]) - start
    return offsets.astype(np.int64, copy=False), adjacency.col_indices[start:stop]


def _shard_anchor_keys(
    payload: Tuple[Tuple[np.ndarray, np.ndarray], np.ndarray, np.ndarray, int]
) -> np.ndarray:
    """Anchor keys for one shard, in bounded blocks of entries.

    The anchor is the neighbor maximizing ``(degree, earliest position
    in row)``, restricted to hubs; encoded as a single integer composite
    so a segmented ``maximum.reduceat`` finds it without a Python loop.
    """
    (offsets, cols), degrees, hub_pos, n_hubs = payload
    n_local = offsets.size - 1
    keys = np.full(n_local, n_hubs, dtype=np.int64)
    for row_lo, row_hi in stream_row_blocks(offsets, n_local, _SCAN_BLOCK):
        start = int(offsets[row_lo])
        stop = int(offsets[row_hi])
        if stop == start:
            continue
        block_cols = np.asarray(cols[start:stop])
        span = stop - start
        position = np.arange(span, dtype=np.int64)
        # Composite: degree major, earlier-position minor; non-hub
        # entries sink below every hub entry.
        composite = degrees[block_cols] * (span + 1) + (span - position)
        composite[hub_pos[block_cols] < 0] = -1
        starts = np.asarray(offsets[row_lo:row_hi], dtype=np.int64) - start
        lengths = np.diff(offsets[row_lo: row_hi + 1])
        nonempty = lengths > 0
        # Sentinel keeps every index in range without clipping — a
        # clipped trailing start would silently truncate the previous
        # row's segment.  ``maximum`` ignores the -1 sentinel; segments
        # reduceat invents for empty rows are masked out below.
        row_best = np.maximum.reduceat(
            np.concatenate([composite, np.asarray([-1], dtype=np.int64)]), starts
        )
        row_best[~nonempty] = -1
        found = row_best >= 0
        if found.any():
            best_position = span - (row_best[found] % (span + 1))
            anchors = block_cols[best_position]
            keys[row_lo:row_hi][found] = hub_pos[anchors]
    return keys
