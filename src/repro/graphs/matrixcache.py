"""Checksummed disk cache for large generated matrices.

R-MAT matrices at ``scale >= MIN_CACHE_SCALE`` take long enough to
generate and symmetrize that rebuilding them per run dominates every
scale benchmark.  The first build persists both views as memmap CSR
directories under the shared experiment cache::

    <cache>/matrices/rmat-s{scale}-ef{edge_factor}-seed{seed}/
      graph.json     # integrity-enveloped parameters + shape record
      adjacency/     # directed adjacency (csr-memmap directory)
      undirected/    # symmetrized view (what detection consumes)

Loads memmap both views and pre-seed ``Graph._undirected_cache``, so
``generate -> detect -> order -> evaluate`` never re-symmetrizes and
never materializes nnz-sized arrays in RAM.  Every layer is
checksummed: ``graph.json`` carries the memo-cache envelope, each
memmap directory carries its own enveloped ``meta.json`` with
per-array byte lengths and sha256 digests.  A damaged entry is moved
to ``<cache>/quarantine/`` — never deleted — and rebuilt, the same
policy the experiment memo cache applies to torn memo files.

Below the scale threshold caching buys nothing, so the graph is built
in RAM exactly as before; results are identical either way because the
memmap build reproduces ``coo_to_csr`` + ``to_undirected`` ordering
bit-for-bit (unit-weight inputs; see
:func:`repro.sparse.memmap.symmetrize_to_memmap`).
"""

from __future__ import annotations

import os
import shutil
from typing import Dict, Iterator, Optional, Tuple

import numpy as np

from repro.errors import CacheIntegrityError
from repro.graphs.generators.powerlaw import rmat
from repro.graphs.graph import Graph
from repro.obs import get_obs, logger
from repro.resilience.integrity import (
    atomic_write_payload,
    load_verified,
    quarantine_path,
    unique_tmp_path,
)
from repro.sparse.coo import COOMatrix
from repro.sparse.memmap import csr_from_coo_chunks, load_csr_memmap, symmetrize_to_memmap

#: Below this R-MAT scale, generation is cheap enough to stay in RAM.
MIN_CACHE_SCALE = 14

#: Bump when the entry layout changes; stale entries rebuild.
MATRIX_CACHE_VERSION = 1

MATRICES_DIRNAME = "matrices"
GRAPH_META_FILENAME = "graph.json"
ADJACENCY_DIRNAME = "adjacency"
UNDIRECTED_DIRNAME = "undirected"

#: COO entries fed to the CSR builder per chunk during a cache build.
_GEN_CHUNK = 4 << 20


def rmat_cache_key(scale: int, edge_factor: int, seed: int) -> str:
    """Directory name for one (scale, edge_factor, seed) R-MAT entry."""
    return f"rmat-s{scale}-ef{edge_factor}-seed{seed}"


def matrix_cache_root(cache_dir: Optional[str] = None) -> str:
    """``<cache>/matrices`` under the shared experiment cache dir."""
    # Deferred import: repro.experiments' package init reaches back into
    # repro.graphs via the figure modules.
    from repro.experiments.runner import resolve_cache_dir

    return os.path.join(resolve_cache_dir(cache_dir), MATRICES_DIRNAME)


def cached_rmat_graph(
    scale: int,
    edge_factor: int,
    seed: int = 0,
    cache_dir: Optional[str] = None,
    min_cache_scale: int = MIN_CACHE_SCALE,
) -> Graph:
    """R-MAT graph, memmap-backed from the disk cache when large.

    Small instances (``scale < min_cache_scale``) build in RAM as
    always.  Large instances load from the cache, building it on the
    first miss; the returned graph's adjacency *and* pre-seeded
    undirected view are then memmaps, so downstream passes stream.
    """
    if scale < min_cache_scale:
        return Graph.from_coo(rmat(scale, edge_factor, seed=seed), directed=True)
    expect = _expected_payload(scale, edge_factor, seed)
    directory = os.path.join(
        matrix_cache_root(cache_dir), rmat_cache_key(scale, edge_factor, seed)
    )
    obs = get_obs()
    try:
        graph = load_cached_graph(directory, expect=expect)
        obs.counter("matrixcache.hit")
        return graph
    except FileNotFoundError:
        obs.counter("matrixcache.miss")
    except CacheIntegrityError as exc:
        logger.warning("matrix cache entry damaged, rebuilding: %s", exc)
        _quarantine_entry(directory, cache_dir)
        obs.counter("matrixcache.quarantined")
    build_rmat_cache(directory, scale, edge_factor, seed)
    return load_cached_graph(directory, expect=expect)


def _expected_payload(scale: int, edge_factor: int, seed: int) -> Dict[str, object]:
    return {
        "generator": "rmat",
        "scale": int(scale),
        "edge_factor": int(edge_factor),
        "seed": int(seed),
    }


def _quarantine_entry(directory: str, cache_dir: Optional[str]) -> Optional[str]:
    """Move a damaged entry directory under ``<cache>/quarantine/``."""
    from repro.experiments.runner import resolve_cache_dir  # deferred, as above

    if not os.path.isdir(directory):
        return None
    target_dir = quarantine_path(resolve_cache_dir(cache_dir))
    os.makedirs(target_dir, exist_ok=True)
    target = unique_tmp_path(os.path.join(target_dir, os.path.basename(directory)))
    try:
        os.replace(directory, target)
    except OSError:
        return None  # a concurrent worker quarantined it first
    return target


def _coo_chunks(coo: COOMatrix):
    """Replayable bounded-chunk stream over an in-RAM COO matrix."""

    def chunks() -> Iterator[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
        for start in range(0, coo.nnz, _GEN_CHUNK):
            stop = min(start + _GEN_CHUNK, coo.nnz)
            yield coo.rows[start:stop], coo.cols[start:stop], coo.values[start:stop]

    return chunks


def build_rmat_cache(directory: str, scale: int, edge_factor: int, seed: int) -> str:
    """Generate one R-MAT entry and publish it atomically.

    Generation itself is transient RAM (the generator samples the full
    edge list); both CSR views are built straight into memmaps, and the
    whole entry lands via staging-dir + ``os.replace`` so readers never
    see a partial entry.  Returns ``directory``.
    """
    obs = get_obs()
    provenance = _expected_payload(scale, edge_factor, seed)
    staging = unique_tmp_path(directory)
    os.makedirs(staging)
    try:
        with obs.span("matrixcache-build", **provenance):
            with obs.span("matrixcache-generate"):
                coo = rmat(scale, edge_factor, seed=seed)
            n = coo.n_rows
            with obs.span("matrixcache-adjacency"):
                adjacency = csr_from_coo_chunks(
                    _coo_chunks(coo),
                    n,
                    n,
                    os.path.join(staging, ADJACENCY_DIRNAME),
                    extra_meta={**provenance, "role": "adjacency"},
                )
            del coo  # release the generation arrays before symmetrizing
            with obs.span("matrixcache-symmetrize"):
                undirected = symmetrize_to_memmap(
                    adjacency,
                    os.path.join(staging, UNDIRECTED_DIRNAME),
                    extra_meta={**provenance, "role": "undirected"},
                )
            payload: Dict[str, object] = {
                "kind": "matrix-cache",
                "version": MATRIX_CACHE_VERSION,
                **provenance,
                "directed": True,
                "n_nodes": int(n),
                "nnz": int(adjacency.nnz),
                "undirected_nnz": int(undirected.nnz),
            }
            del adjacency, undirected
            atomic_write_payload(os.path.join(staging, GRAPH_META_FILENAME), payload)
        os.makedirs(os.path.dirname(os.path.abspath(directory)), exist_ok=True)
        if os.path.isdir(directory):
            shutil.rmtree(directory)  # concurrent rebuild: last writer wins
        os.replace(staging, directory)
    except BaseException:
        shutil.rmtree(staging, ignore_errors=True)
        raise
    return directory


def load_cached_graph(
    directory: str, expect: Optional[Dict[str, object]] = None
) -> Graph:
    """Open one cache entry as a memmap-backed :class:`Graph`.

    Raises :class:`FileNotFoundError` when the entry is absent and
    :class:`CacheIntegrityError` when any layer fails verification —
    including a parameter mismatch against ``expect``, which guards
    against a foreign directory squatting on the entry's name.
    """
    meta_path = os.path.join(directory, GRAPH_META_FILENAME)
    if not os.path.exists(meta_path):
        raise FileNotFoundError(meta_path)
    payload = load_verified(meta_path)
    if (
        payload.get("kind") != "matrix-cache"
        or payload.get("version") != MATRIX_CACHE_VERSION
    ):
        raise CacheIntegrityError(
            f"{meta_path}: not a matrix-cache v{MATRIX_CACHE_VERSION} entry "
            f"(kind={payload.get('kind')!r}, version={payload.get('version')!r})"
        )
    for key, value in (expect or {}).items():
        if payload.get(key) != value:
            raise CacheIntegrityError(
                f"{meta_path}: cached {key}={payload.get(key)!r} "
                f"does not match requested {value!r}"
            )
    adjacency = load_csr_memmap(os.path.join(directory, ADJACENCY_DIRNAME))
    undirected = load_csr_memmap(os.path.join(directory, UNDIRECTED_DIRNAME))
    if (
        adjacency.n_rows != payload.get("n_nodes")
        or adjacency.nnz != payload.get("nnz")
        or undirected.n_rows != payload.get("n_nodes")
        or undirected.nnz != payload.get("undirected_nnz")
    ):
        raise CacheIntegrityError(
            f"{directory}: array shapes disagree with {GRAPH_META_FILENAME}"
        )
    graph = Graph(adjacency, directed=bool(payload.get("directed", True)))
    undirected_graph = Graph(undirected, directed=False)
    # Pre-seed both caches: to_undirected() must return the memmap view
    # instead of re-symmetrizing (which would materialize nnz in RAM).
    undirected_graph._undirected_cache = undirected_graph
    graph._undirected_cache = undirected_graph
    return graph
