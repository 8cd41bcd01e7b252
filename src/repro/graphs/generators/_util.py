"""Shared helpers for the synthetic generators."""

from __future__ import annotations

from typing import Tuple, Union

import numpy as np

from repro.errors import ValidationError
from repro.sparse.coo import COOMatrix, sorted_unique

SeedLike = Union[int, np.random.Generator]


def make_rng(seed: SeedLike) -> np.random.Generator:
    """Normalize an integer seed or an existing generator to a Generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(int(seed))


def dedupe_undirected_pairs(
    n: int, u: np.ndarray, v: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Canonicalize endpoint pairs as ``u < v`` and drop duplicates/loops."""
    lo = np.minimum(u, v)
    hi = np.maximum(u, v)
    keep = lo != hi
    lo, hi = lo[keep], hi[keep]
    if lo.size == 0:
        return lo.astype(np.int64), hi.astype(np.int64)
    keys = lo.astype(np.int64) * n + hi.astype(np.int64)
    unique_keys = sorted_unique(keys)
    return unique_keys // n, unique_keys % n


def undirected_coo(n: int, u: np.ndarray, v: np.ndarray) -> COOMatrix:
    """Build a symmetric COO adjacency from (possibly duplicated) pairs."""
    lo, hi = dedupe_undirected_pairs(n, u, v)
    rows = np.concatenate([lo, hi])
    cols = np.concatenate([hi, lo])
    return COOMatrix(n, n, rows, cols)


def directed_coo(n: int, u: np.ndarray, v: np.ndarray) -> COOMatrix:
    """Build a directed COO adjacency, dropping self loops and duplicates."""
    u = np.asarray(u, dtype=np.int64)
    v = np.asarray(v, dtype=np.int64)
    keep = u != v
    u, v = u[keep], v[keep]
    if u.size:
        keys = u * n + v
        unique_keys = sorted_unique(keys)
        u, v = unique_keys // n, unique_keys % n
    return COOMatrix(n, n, u, v)


def check_positive(name: str, value: float) -> None:
    if value <= 0:
        raise ValidationError(f"{name} must be positive, got {value}")


def check_probability(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise ValidationError(f"{name} must be in [0, 1], got {value}")
