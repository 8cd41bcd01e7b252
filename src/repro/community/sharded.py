"""Sharded Rabbit community detection for scale-out matrices.

The single-visit aggregation in :func:`~repro.community.rabbit.
rabbit_communities` is inherently sequential — every merge changes the
coarsened graph the next visit sees.  This module trades a little
modularity for shard-level parallelism with a two-level scheme:

1. **Local pass** — the vertex range is split into ``n_shards``
   contiguous shards; each shard's *induced* subgraph (both endpoints
   inside the shard) runs ordinary Rabbit aggregation, independently
   and in parallel via :func:`repro.parallel.pool.map_in_pool`.
2. **Coarse pass** — the surviving local communities become the nodes
   of a coarse graph whose edge weights aggregate every original edge
   crossing two distinct communities (cut edges between shards *and*
   residual intra-shard cuts).  One more Rabbit pass on this coarse
   graph stitches communities across shard boundaries.

The per-shard merge forests and the coarse forest compose into a single
:class:`~repro.community.Dendrogram` over the original vertices, so the
result quacks exactly like single-shard detection: ``.ordering()``
yields a RABBIT-style permutation, ``assignment`` a compact labelling.

Determinism contract (locked by differential tests): the result is a
pure function of ``(graph, n_shards)`` — ``jobs`` only
decides *where* shards run, never what they compute, and every merge
step is sequential-in-parent or order-preserving.  ``n_shards=1``
short-circuits to plain ``rabbit_communities`` and is bit-identical to
it.

Quality caveat: the coarse graph drops community self-weights (internal
edge mass), so coarse-pass modularity gains are computed against
external degrees only — a slight bias toward merging.  The modularity
delta vs. single-shard detection is tracked by the scale benchmark and
bounded in tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.community.assignment import CommunityAssignment
from repro.community.dendrogram import Dendrogram
from repro.community.rabbit import RabbitResult, rabbit_communities
from repro.errors import ValidationError
from repro.graphs.graph import Graph
from repro.obs import get_obs
from repro.sparse.coo import INDEX_DTYPE
from repro.sparse.csr import CSRMatrix

#: Max entries materialized per block while aggregating coarse edges;
#: keeps the scan memmap-friendly (sequential reads, bounded RAM).
_AGGREGATE_BLOCK = 4 << 20

#: Consolidate the coarse-edge accumulator when it exceeds this many
#: distinct (community, community) pairs.
_CONSOLIDATE_LIMIT = 8 << 20


@dataclass
class ShardedRabbitResult:
    """Outcome of sharded detection; a superset of :class:`RabbitResult`.

    Attributes
    ----------
    assignment:
        Final compact node-to-community labels.
    dendrogram:
        Composed merge forest over the *original* vertices;
        ``dendrogram.ordering()`` is the sharded-RABBIT permutation.
    n_merges:
        Total accepted merges across local and coarse passes.
    n_shards:
        Effective shard count (clamped to ``n_nodes``).
    bounds:
        The contiguous ``(lo, hi)`` vertex range of each shard.
    n_local_communities:
        Communities surviving the local pass (coarse-graph node count).
    """

    assignment: CommunityAssignment
    dendrogram: Dendrogram
    n_merges: int
    n_shards: int
    bounds: Tuple[Tuple[int, int], ...]
    n_local_communities: int


def shard_bounds(n_nodes: int, n_shards: int) -> Tuple[Tuple[int, int], ...]:
    """Contiguous, balanced ``(lo, hi)`` ranges covering ``[0, n_nodes)``.

    The first ``n_nodes % n_shards`` shards get one extra vertex, so
    sizes differ by at most one.
    """
    if n_nodes < 0:
        raise ValidationError(f"n_nodes must be non-negative, got {n_nodes}")
    if n_shards < 1:
        raise ValidationError(f"n_shards must be positive, got {n_shards}")
    n_shards = min(n_shards, max(n_nodes, 1))
    base, extra = divmod(n_nodes, n_shards)
    bounds: List[Tuple[int, int]] = []
    lo = 0
    for index in range(n_shards):
        hi = lo + base + (1 if index < extra else 0)
        bounds.append((lo, hi))
        lo = hi
    return tuple(bounds)


def _extract_shard(adjacency: CSRMatrix, lo: int, hi: int) -> CSRMatrix:
    """Induced subgraph on rows/cols ``[lo, hi)`` with local IDs.

    Row slices of a memmap adjacency stay lazy until masked, so the
    extraction reads each shard's rows once, sequentially.
    """
    start = int(adjacency.row_offsets[lo])
    stop = int(adjacency.row_offsets[hi])
    cols = np.asarray(adjacency.col_indices[start:stop])
    keep = (cols >= lo) & (cols < hi)
    local_cols = cols[keep] - lo
    values = np.asarray(adjacency.values[start:stop])[keep]
    row_of_entry = np.repeat(
        np.arange(hi - lo, dtype=INDEX_DTYPE),
        np.diff(adjacency.row_offsets[lo: hi + 1]),
    )[keep]
    counts = np.bincount(row_of_entry, minlength=hi - lo)
    offsets = np.zeros(hi - lo + 1, dtype=INDEX_DTYPE)
    np.cumsum(counts, out=offsets[1:])
    return CSRMatrix(hi - lo, hi - lo, offsets, local_cols, values)


def _detect_shard(local_csr: CSRMatrix) -> RabbitResult:
    """Pool worker: run plain Rabbit on one shard's induced subgraph."""
    local_graph = Graph(local_csr, directed=False)
    # The induced slice of a symmetric, loop-free adjacency is itself
    # symmetric and loop-free; skip re-symmetrization.
    local_graph._undirected_cache = local_graph
    return rabbit_communities(local_graph)


def _leaf_roots(dendrogram: Dendrogram) -> np.ndarray:
    """Root vertex of every leaf, via vectorized pointer doubling."""
    parent = np.arange(dendrogram.n_leaves, dtype=np.int64)
    for vertex, kids in enumerate(dendrogram._children):
        if kids:
            parent[np.asarray(kids, dtype=np.int64)] = vertex
    while True:
        grand = parent[parent]
        if np.array_equal(grand, parent):
            return parent
        parent = grand


def _consolidate(keys: np.ndarray, weights: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    unique_keys, inverse = np.unique(keys, return_inverse=True)
    return unique_keys, np.bincount(inverse, weights=weights)


def _aggregate_coarse_edges(
    adjacency: CSRMatrix, labels: np.ndarray, n_coarse: int
) -> CSRMatrix:
    """Weighted coarse adjacency: sum of edges between distinct labels.

    Streams the (possibly memmap-backed) adjacency in row blocks of at
    most ``_AGGREGATE_BLOCK`` entries; deterministic for a fixed input
    regardless of ``jobs`` because it runs in the parent in row order.
    """
    offsets = adjacency.row_offsets
    n_rows = adjacency.n_rows
    acc_keys = np.empty(0, dtype=np.int64)
    acc_weights = np.empty(0, dtype=np.float64)
    row = 0
    while row < n_rows:
        start = int(offsets[row])
        end_row = row
        while end_row < n_rows and int(offsets[end_row + 1]) - start <= _AGGREGATE_BLOCK:
            end_row += 1
        end_row = max(end_row, row + 1)
        stop = int(offsets[end_row])
        if stop > start:
            block_rows = np.repeat(
                np.arange(row, end_row, dtype=np.int64),
                np.diff(offsets[row: end_row + 1]),
            )
            label_u = labels[block_rows]
            label_v = labels[np.asarray(adjacency.col_indices[start:stop])]
            weights = np.asarray(adjacency.values[start:stop])
            cut = label_u != label_v
            pair_keys = label_u[cut] * n_coarse + label_v[cut]
            unique_keys, inverse = np.unique(pair_keys, return_inverse=True)
            acc_keys = np.concatenate([acc_keys, unique_keys])
            acc_weights = np.concatenate(
                [acc_weights, np.bincount(inverse, weights=weights[cut])]
            )
            if acc_keys.size > _CONSOLIDATE_LIMIT:
                acc_keys, acc_weights = _consolidate(acc_keys, acc_weights)
        row = end_row
    acc_keys, acc_weights = _consolidate(acc_keys, acc_weights)
    coarse_rows = acc_keys // n_coarse
    coarse_cols = acc_keys % n_coarse
    counts = np.bincount(coarse_rows, minlength=n_coarse)
    coarse_offsets = np.zeros(n_coarse + 1, dtype=INDEX_DTYPE)
    np.cumsum(counts, out=coarse_offsets[1:])
    # Keys ascend, so entries are already row-major with sorted columns.
    return CSRMatrix(n_coarse, n_coarse, coarse_offsets, coarse_cols, acc_weights)


def sharded_rabbit_communities(
    graph: Graph,
    n_shards: int,
    jobs: int = 1,
) -> ShardedRabbitResult:
    """Two-level (local shards + coarse stitch) Rabbit detection.

    Parameters
    ----------
    graph:
        Input graph; symmetrized internally exactly like
        :func:`rabbit_communities`.
    n_shards:
        Contiguous vertex-range shards for the local pass.  ``1``
        short-circuits to plain single-shard detection (bit-identical).
    jobs:
        Worker processes for the local pass.  Never affects the result.
    """
    if n_shards < 1:
        raise ValidationError(f"n_shards must be positive, got {n_shards}")
    if jobs < 1:
        raise ValidationError(f"jobs must be positive, got {jobs}")
    undirected = graph.to_undirected()
    n = undirected.n_nodes
    if n_shards == 1 or n <= 1:
        base = rabbit_communities(graph)
        return ShardedRabbitResult(
            assignment=base.assignment,
            dendrogram=base.dendrogram,
            n_merges=base.n_merges,
            n_shards=1,
            bounds=((0, n),),
            n_local_communities=int(base.dendrogram.roots().size),
        )

    bounds = shard_bounds(n, n_shards)
    adjacency = undirected.adjacency
    with get_obs().span(
        "reorder-detect-sharded",
        n_shards=len(bounds),
        jobs=jobs,
        n_nodes=n,
    ):
        # Deferred import: repro.parallel's package init reaches back
        # into repro.reorder via the experiment executor.
        from repro.parallel.pool import map_in_pool

        with get_obs().span("detect-shards", n_shards=len(bounds)):
            shards = [_extract_shard(adjacency, lo, hi) for lo, hi in bounds]
            local_results = map_in_pool(_detect_shard, shards, jobs=jobs)

        with get_obs().span("merge-shards"):
            merged = Dendrogram(n)
            children = merged._children
            absorbed = merged._absorbed
            root_of = np.empty(n, dtype=np.int64)
            n_merges = 0
            for (lo, hi), local in zip(bounds, local_results):
                for vertex, kids in enumerate(local.dendrogram._children):
                    if kids:
                        children[lo + vertex] = [lo + kid for kid in kids]
                absorbed[lo:hi] = local.dendrogram._absorbed
                root_of[lo:hi] = _leaf_roots(local.dendrogram) + lo
                n_merges += local.n_merges
            global_roots = np.flatnonzero(~absorbed)
            n_coarse = int(global_roots.size)
            labels = np.searchsorted(global_roots, root_of)
            coarse_csr = _aggregate_coarse_edges(adjacency, labels, n_coarse)

        coarse_graph = Graph(coarse_csr, directed=False)
        coarse_graph._undirected_cache = coarse_graph  # loop-free + symmetric
        coarse = rabbit_communities(coarse_graph)

        with get_obs().span("compose-dendrogram"):
            for vertex, kids in enumerate(coarse.dendrogram._children):
                if kids:
                    winner = int(global_roots[vertex])
                    children[winner].extend(int(global_roots[kid]) for kid in kids)
            absorbed[global_roots[coarse.dendrogram._absorbed]] = True
            n_merges += coarse.n_merges
            final_labels = _leaf_roots(coarse.dendrogram)[labels]
            assignment = CommunityAssignment(final_labels).compact()

    return ShardedRabbitResult(
        assignment=assignment,
        dendrogram=merged,
        n_merges=n_merges,
        n_shards=len(bounds),
        bounds=bounds,
        n_local_communities=n_coarse,
    )


__all__: Sequence[str] = (
    "ShardedRabbitResult",
    "shard_bounds",
    "sharded_rabbit_communities",
)
