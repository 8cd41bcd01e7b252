"""Scale-out reordering benchmark (``repro bench-reorder``).

One end-to-end pass of the reordering pipeline on a large seeded R-MAT:
matrix-cache setup, single-shard vs sharded RABBIT detection, then each
technique in :data:`SCALE_TECHNIQUES`, with nodes/s, modularity,
label/permutation digests and per-phase peak RSS.  CI's ``scale-smoke``
job runs it at scale 13 and diffs the digests across ``--jobs`` counts.
"""

from __future__ import annotations

import hashlib
import time
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.graphs.graph import Graph
from repro.obs import get_obs

#: Default workload: large enough that the undirected view alone is
#: several hundred MB of CSR arrays, small enough that one pass of every
#: technique stays in CLI territory on a single core.
SCALE_GRAPH = {"scale": 18, "edge_factor": 16, "seed": 7}

#: Techniques timed: the community-based heavyweight, the BOBA-style
#: lightweight, and the degree-bucket baseline BOBA approximates.
SCALE_TECHNIQUES = ("rabbit", "boba", "dbg")


def _sha256_array(array: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


def run_scale_bench(
    scale: int = SCALE_GRAPH["scale"],
    edge_factor: int = SCALE_GRAPH["edge_factor"],
    seed: int = SCALE_GRAPH["seed"],
    n_shards: int = 4,
    jobs: int = 1,
    use_memmap: bool = True,
    techniques: Sequence[str] = SCALE_TECHNIQUES,
    cache_dir: Optional[str] = None,
    clock: Optional[Callable[[], float]] = None,
) -> Dict[str, object]:
    """Scale-out benchmark: one end-to-end pass on a large R-MAT.

    Measures how the pipeline behaves when the matrix is big:

    - the graph comes from the memmap-backed matrix cache
      (:func:`repro.graphs.matrixcache.cached_rmat_graph`) unless
      ``use_memmap`` is false, so detection and ordering stream from
      disk;
    - community detection runs once single-shard and once sharded
      (``n_shards``/``jobs``), recording nodes/s for both, their
      speedup ratio, and the modularity each achieves (the merge's
      quality cost stays visible, not just its throughput);
    - each technique runs once end-to-end, recording nodes/s and the
      permutation's sha256 — runs with different ``jobs`` values must
      produce identical digests (the CI scale-smoke job diffs them);
    - the process peak RSS is snapshotted after every phase
      (``ru_maxrss`` is monotonic, so each snapshot bounds everything
      before it) — the ground truth that the memmap path actually kept
      nnz-sized arrays off the heap.

    Returns a ``{"mode": "scale", ...}`` payload.
    """
    from repro.community.modularity import modularity_csr
    from repro.community.rabbit import rabbit_communities
    from repro.community.sharded import sharded_rabbit_communities
    from repro.graphs.generators.powerlaw import rmat
    from repro.graphs.matrixcache import cached_rmat_graph
    from repro.obs.rss import peak_rss_kb
    from repro.reorder.boba import BobaOrder
    from repro.reorder.registry import make_technique
    from repro.sparse.memmap import is_memmap_backed

    clock = clock or time.perf_counter
    rss: Dict[str, Optional[int]] = {}

    def snapshot_rss(phase: str) -> None:
        peak = peak_rss_kb()
        if peak is not None:
            rss[phase] = peak

    obs = get_obs()
    with obs.span("bench-scale-setup", scale=scale, edge_factor=edge_factor):
        start = clock()
        if use_memmap:
            # min_cache_scale=0 forces the memmap cache even below the
            # usual threshold, so CI can exercise the path at scale 13.
            graph = cached_rmat_graph(
                scale, edge_factor, seed=seed, cache_dir=cache_dir, min_cache_scale=0
            )
        else:
            graph = Graph.from_coo(rmat(scale, edge_factor, seed=seed), directed=True)
        undirected = graph.to_undirected()
        setup_seconds = clock() - start
    snapshot_rss("setup")

    n_nodes = graph.n_nodes
    with obs.span("bench-scale-detect", n_shards=n_shards, jobs=jobs):
        start = clock()
        single = rabbit_communities(graph)
        single_seconds = clock() - start
        start = clock()
        sharded = sharded_rabbit_communities(graph, n_shards=n_shards, jobs=jobs)
        sharded_seconds = clock() - start
    detection = {
        "single": {
            "seconds": single_seconds,
            "nodes_per_s": n_nodes / single_seconds if single_seconds > 0 else float("inf"),
            "modularity": modularity_csr(undirected.adjacency, single.assignment.labels),
            "n_communities": int(single.assignment.n_communities),
        },
        "sharded": {
            "seconds": sharded_seconds,
            "nodes_per_s": n_nodes / sharded_seconds if sharded_seconds > 0 else float("inf"),
            "modularity": modularity_csr(undirected.adjacency, sharded.assignment.labels),
            "n_communities": int(sharded.assignment.n_communities),
            "n_shards": n_shards,
            "jobs": jobs,
            "labels_sha256": _sha256_array(sharded.assignment.labels),
        },
        "sharded_speedup": (
            single_seconds / sharded_seconds if sharded_seconds > 0 else float("inf")
        ),
    }
    snapshot_rss("detect")

    rows: List[Dict[str, object]] = []
    with obs.span("bench-scale-order"):
        for name in techniques:
            technique = (
                BobaOrder(n_shards=n_shards, jobs=jobs)
                if name == "boba"
                else make_technique(name)
            )
            start = clock()
            perm = technique.compute(graph)
            seconds = clock() - start
            rows.append(
                {
                    "name": name,
                    "seconds": seconds,
                    "nodes_per_s": n_nodes / seconds if seconds > 0 else float("inf"),
                    "permutation_sha256": _sha256_array(perm),
                }
            )
    snapshot_rss("order")
    overall = peak_rss_kb()
    if overall is not None:
        rss["overall"] = overall

    return {
        "mode": "scale",
        "workload": {
            "scale": scale,
            "edge_factor": edge_factor,
            "seed": seed,
            "n_nodes": n_nodes,
            "nnz": int(graph.adjacency.nnz),
            "undirected_nnz": int(undirected.adjacency.nnz),
            "memmap": bool(is_memmap_backed(graph.adjacency)),
            "setup_seconds": setup_seconds,
        },
        "detection": detection,
        "techniques": rows,
        "rss_peak_kb": rss,
    }
