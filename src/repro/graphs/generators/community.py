"""Community-structured generators.

The degree-corrected stochastic block model (:func:`dcsbm`) is the
corpus workhorse because it independently controls the two structural
axes the paper identifies as decisive:

* **mixing** ``mu`` — the expected fraction of inter-community edges,
  which directly sets the achievable insularity (insularity of a
  perfect detection is roughly ``1 - mu``); and
* **degree skew** ``theta_exponent`` — Zipf-like node weights, which
  create the hub nodes the paper shows degrade community detection.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ValidationError
from repro.graphs.generators._util import (
    SeedLike,
    check_positive,
    check_probability,
    make_rng,
    undirected_coo,
)
from repro.sparse.coo import COOMatrix, sorted_unique


def dcsbm(
    n: int,
    n_blocks: int,
    avg_degree: float,
    mu: float,
    theta_exponent: float = 0.0,
    seed: SeedLike = 0,
) -> COOMatrix:
    """Degree-corrected stochastic block model.

    Nodes are split into ``n_blocks`` equal-size blocks.  A fraction
    ``1 - mu`` of edges is sampled inside blocks and ``mu`` between
    arbitrary nodes, with endpoints drawn proportionally to per-node
    Zipf weights ``(rank + 1) ** -theta_exponent`` (``0`` means uniform
    degrees; ``~0.8+`` produces strong hubs).  Node ranks are scattered
    pseudo-randomly across blocks so hubs exist in every block.
    """
    check_positive("n", n)
    check_positive("n_blocks", n_blocks)
    check_positive("avg_degree", avg_degree)
    check_probability("mu", mu)
    if theta_exponent < 0:
        raise ValidationError(f"theta_exponent must be >= 0, got {theta_exponent}")
    if n_blocks > n:
        raise ValidationError(f"n_blocks ({n_blocks}) cannot exceed n ({n})")
    rng = make_rng(seed)

    blocks = np.arange(n, dtype=np.int64) % n_blocks
    # Zipf weights over a random rank assignment (so block 0 does not
    # monopolize the hubs).
    ranks = rng.permutation(n)
    weights = np.power(ranks + 1.0, -theta_exponent)
    weights /= weights.sum()

    block_members = [np.flatnonzero(blocks == block) for block in range(n_blocks)]
    block_local_weights = []
    for members in block_members:
        local = weights[members]
        block_local_weights.append(local / local.sum())
    block_mass = np.zeros(n_blocks)
    np.add.at(block_mass, blocks, weights)
    block_share = block_mass**2
    block_share /= block_share.sum()

    def sample_pairs(count: int) -> "tuple[np.ndarray, np.ndarray]":
        n_inter = int(round(count * mu))
        n_intra = count - n_inter
        u_parts = []
        v_parts = []
        if n_inter:
            u_parts.append(_weighted_choice(rng, weights, n_inter))
            v_parts.append(_weighted_choice(rng, weights, n_inter))
        if n_intra:
            per_block = rng.multinomial(n_intra, block_share)
            for block in range(n_blocks):
                block_count = int(per_block[block])
                if block_count == 0:
                    continue
                members = block_members[block]
                picks_u = _weighted_choice(rng, block_local_weights[block], block_count)
                picks_v = _weighted_choice(rng, block_local_weights[block], block_count)
                u_parts.append(members[picks_u])
                v_parts.append(members[picks_v])
        u = np.concatenate(u_parts) if u_parts else np.empty(0, dtype=np.int64)
        v = np.concatenate(v_parts) if v_parts else np.empty(0, dtype=np.int64)
        return u, v

    # Skewed weights make duplicate pairs common, and duplicates are
    # merged by the canonicalization pass, which would silently halve
    # the density.  Top up in rounds until the unique-edge target is
    # met (or sampling saturates, with extreme skew).
    target_edges = int(round(n * avg_degree / 2))
    keys = np.empty(0, dtype=np.int64)
    for _ in range(8):
        shortfall = target_edges - keys.size
        if shortfall <= 0:
            break
        u, v = sample_pairs(int(shortfall * 1.2) + 8)
        lo = np.minimum(u, v)
        hi = np.maximum(u, v)
        keep = lo != hi
        new_keys = lo[keep] * n + hi[keep]
        keys = sorted_unique(np.concatenate([keys, new_keys]))
    if keys.size > target_edges:
        keys = rng.choice(keys, size=target_edges, replace=False)
    lo = keys // n
    hi = keys % n
    return undirected_coo(n, lo, hi)


def _weighted_choice(rng: np.random.Generator, probabilities: np.ndarray, count: int) -> np.ndarray:
    """Sample ``count`` indices with replacement via inverse-CDF search.

    ``Generator.choice`` with probabilities is O(n) *per call setup*
    but uses an alias-free method that is slow for large draws; the
    cumulative-sum + searchsorted form is both exact and fast.
    """
    cdf = np.cumsum(probabilities)
    cdf[-1] = 1.0  # guard against floating-point shortfall
    return np.searchsorted(cdf, rng.random(count), side="right").astype(np.int64)


def planted_partition(
    n: int,
    n_blocks: int,
    avg_degree: float,
    mu: float,
    seed: SeedLike = 0,
) -> COOMatrix:
    """Classic planted-partition model: :func:`dcsbm` with uniform degrees."""
    return dcsbm(n, n_blocks, avg_degree, mu, theta_exponent=0.0, seed=seed)


def hub_overlay(
    base: COOMatrix,
    n_hubs: int,
    hub_degree: int,
    seed: SeedLike = 0,
) -> COOMatrix:
    """Superimpose broadly-connected hub nodes on an existing graph.

    Models hyperlink-style matrices: an underlying community structure
    (the ``base``) plus a small set of pages everyone links to.  The
    ``n_hubs`` lowest-ID nodes each gain ``hub_degree`` edges to
    uniformly random nodes.
    """
    check_positive("n_hubs", n_hubs)
    check_positive("hub_degree", hub_degree)
    if n_hubs > base.n_rows:
        raise ValidationError(f"n_hubs ({n_hubs}) exceeds node count ({base.n_rows})")
    rng = make_rng(seed)
    n = base.n_rows
    hub_ids = np.repeat(np.arange(n_hubs, dtype=np.int64), hub_degree)
    targets = rng.integers(0, n, size=hub_ids.size, dtype=np.int64)
    u = np.concatenate([base.rows, hub_ids, targets])
    v = np.concatenate([base.cols, targets, hub_ids])
    # base is already symmetric; re-canonicalize the union.
    return undirected_coo(n, u, v)


def star_burst(
    n: int,
    n_hubs: int,
    leaf_links: int = 1,
    hub_interlinks: int = 4,
    seed: SeedLike = 0,
) -> COOMatrix:
    """Traffic-trace-like graph: a few giant stars (mawi analogue).

    Every non-hub node connects to ``leaf_links`` hubs chosen with a
    heavily skewed (Zipf) preference, and the hubs form a small clique
    of ``hub_interlinks`` random interconnections each.  Community
    detection on such a graph merges each star into one near-whole-
    matrix community: insularity is high, but the giant community
    defeats cache blocking — the corner case of paper Section V-B.
    """
    check_positive("n", n)
    check_positive("n_hubs", n_hubs)
    check_positive("leaf_links", leaf_links)
    if n_hubs >= n:
        raise ValidationError(f"n_hubs ({n_hubs}) must be smaller than n ({n})")
    rng = make_rng(seed)
    hub_weights = np.power(np.arange(1, n_hubs + 1, dtype=np.float64), -1.2)
    hub_weights /= hub_weights.sum()
    leaves = np.repeat(np.arange(n_hubs, n, dtype=np.int64), leaf_links)
    targets = _weighted_choice(rng, hub_weights, leaves.size)
    hub_u = np.repeat(np.arange(n_hubs, dtype=np.int64), hub_interlinks)
    hub_v = rng.integers(0, n_hubs, size=hub_u.size, dtype=np.int64)
    u = np.concatenate([leaves, hub_u])
    v = np.concatenate([targets, hub_v])
    return undirected_coo(n, u, v)


def hierarchical_blocks(
    n: int,
    levels: int,
    degree_per_level: float,
    decay: float = 0.5,
    seed: SeedLike = 0,
    rewire: float = 0.0,
) -> COOMatrix:
    """Nested-community graph modelling circuit netlists / VLSI matrices.

    The node range is recursively halved ``levels`` times.  At level 0
    edges connect nodes anywhere; at level ``l`` edges connect nodes
    within the same ``2**l``-way block.  Edge budget per level grows
    toward the leaves (factor ``1/decay`` per level), so most wiring is
    local with a thin global interconnect — the hierarchy RABBIT's
    dendrogram is designed to capture.

    ``rewire`` optionally replaces that fraction of endpoints with
    uniform random nodes (process noise).
    """
    check_positive("n", n)
    check_positive("levels", levels)
    check_positive("degree_per_level", degree_per_level)
    check_probability("rewire", rewire)
    if not 0.0 < decay <= 1.0:
        raise ValidationError(f"decay must be in (0, 1], got {decay}")
    rng = make_rng(seed)
    u_parts = []
    v_parts = []
    # Leaf level gets weight 1, parents get progressively `decay`.
    level_weights = np.array([decay ** (levels - 1 - l) for l in range(levels)])
    level_weights /= level_weights.sum()
    total_edges = int(round(n * degree_per_level * levels / 2))
    for level in range(levels):
        n_level_edges = int(round(total_edges * level_weights[level]))
        if n_level_edges == 0:
            continue
        n_blocks = 1 << level
        block_size = max(1, n // n_blocks)
        block_of_edge = rng.integers(0, n_blocks, size=n_level_edges, dtype=np.int64)
        starts = block_of_edge * block_size
        widths = np.minimum(block_size, n - starts)
        widths = np.maximum(widths, 1)
        u = starts + (rng.random(n_level_edges) * widths).astype(np.int64)
        v = starts + (rng.random(n_level_edges) * widths).astype(np.int64)
        u_parts.append(u)
        v_parts.append(v)
    u = np.concatenate(u_parts)
    v = np.concatenate(v_parts)
    if rewire > 0:
        flip = rng.random(v.size) < rewire
        v = v.copy()
        v[flip] = rng.integers(0, n, size=int(flip.sum()), dtype=np.int64)
    return undirected_coo(n, u, v)
