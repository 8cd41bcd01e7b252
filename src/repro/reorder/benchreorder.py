"""Fast-vs-oracle reordering micro-benchmark (``repro bench-reorder``).

Two seeded workloads, mirroring the simulator benchmark
(:mod:`repro.cache.benchsim`):

- **Detection throughput** — RABBIT community detection on the
  ``soc-rmat`` corpus matrix (R-MAT scale 16, edge factor 64 — an
  Orkut-class social-network density).  Detection dominates every
  community-based technique, and this row carries the engine's headline
  speedup target (>= 5x single-core).
- **Technique end-to-end** — full permutation computation (detection +
  ordering) for each technique with a vectorized engine, on a mid-size
  R-MAT so the slowest oracle (GOrder) stays in CLI territory.

The ``reference`` rows time the per-node loop oracles in :data:`ORACLES`
directly; the ``fast`` rows time the product path.  Every fast run is
checked for equality against its oracle run — permutations for
techniques, labels/merge counts for detection — so the benchmark
doubles as a large-scale differential test.  The ``smoke``
variant shrinks both graphs for CI.  Results serialize to the
``BENCH_reorder.json`` schema written by
``benchmarks/test_bench_reorder.py`` and the ``--json`` CLI flag.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.community.rabbit import RabbitResult, _rabbit_reference, rabbit_communities
from repro.errors import ValidationError
from repro.graphs.graph import Graph
from repro.obs import get_obs
from repro.reorder.boba import _boba_reference
from repro.reorder.gorder import GOrder, _gorder_reference
from repro.reorder.rabbitpp import RabbitPlusPlus
from repro.reorder.rcm import _rcm_reference

#: R-MAT parameters: detection benchmark == the ``soc-rmat`` corpus
#: entry; technique benchmark sized so reference GOrder finishes in
#: tens of seconds; smoke shrinks everything to CI scale.
DETECT_GRAPH = {"scale": 16, "edge_factor": 64, "seed": 7}
TECHNIQUE_GRAPH = {"scale": 13, "edge_factor": 16, "seed": 7}
SMOKE_GRAPH = {"scale": 10, "edge_factor": 8, "seed": 7}

#: Techniques benchmarked end-to-end against their oracles.
BENCH_TECHNIQUES = ("rabbit", "rabbit++", "rcm", "gorder")

#: Name of the detection-throughput row in results/speedups.
DETECT_ROW = "rabbit-detect"

#: Default workload of the scale-out mode (``--scale``): large enough
#: that the undirected view alone is several hundred MB of CSR arrays,
#: small enough that one pass of every technique stays in CLI
#: territory on a single core.
SCALE_GRAPH = {"scale": 18, "edge_factor": 16, "seed": 7}

#: Techniques timed by the scale-out mode: the community-based
#: heavyweight, the BOBA-style lightweight, and the degree-bucket
#: baseline BOBA approximates.
SCALE_TECHNIQUES = ("rabbit", "boba", "dbg")


def oracle_detection(graph: Graph) -> RabbitResult:
    """RABBIT detection by the dict-per-root oracle."""
    return _rabbit_reference(graph.to_undirected(), n_passes=1)


def _gorder_oracle(graph: Graph) -> np.ndarray:
    technique = GOrder()
    return _gorder_reference(graph, technique.window, technique.max_expand)


#: Technique name -> the oracle permutation its product engine must
#: reproduce bit-for-bit.  rabbit and rabbit++ run oracle detection
#: followed by the technique's own ordering step.
ORACLES: Dict[str, Callable[[Graph], np.ndarray]] = {
    "rabbit": lambda graph: oracle_detection(graph).dendrogram.ordering(),
    "rabbit++": lambda graph: RabbitPlusPlus().order(graph, oracle_detection(graph)),
    "rcm": _rcm_reference,
    "gorder": _gorder_oracle,
    "boba": _boba_reference,
}


@dataclass(frozen=True)
class BenchRow:
    """One (name, impl) timing."""

    name: str
    impl: str
    seconds: float
    nodes_per_s: float

    def to_json(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "impl": self.impl,
            "seconds": self.seconds,
            "nodes_per_s": self.nodes_per_s,
        }


def build_bench_graphs(smoke: bool = False) -> "tuple[Graph, Graph]":
    """(detection graph, technique graph), symmetrization prewarmed.

    Prewarming ``to_undirected()`` (cached on :class:`Graph`) keeps the
    timed region to the engine under test: engine and oracle symmetrize
    identically, so including it would only dilute the comparison.
    """
    from repro.graphs.generators.powerlaw import rmat

    detect_params = SMOKE_GRAPH if smoke else DETECT_GRAPH
    technique_params = SMOKE_GRAPH if smoke else TECHNIQUE_GRAPH
    with get_obs().span("bench-reorder-setup", **detect_params):
        detect_graph = Graph.from_coo(rmat(**detect_params), directed=True)
        detect_graph.to_undirected()
        if technique_params == detect_params:
            technique_graph = detect_graph
        else:
            technique_graph = Graph.from_coo(rmat(**technique_params), directed=True)
            technique_graph.to_undirected()
        # GOrder reads the cached transpose; warm it so the oracle row
        # (timed first) does not pay the one-off build.
        technique_graph.in_adjacency
    return detect_graph, technique_graph


def _timed_best(
    action: Callable[[], object], repeats: int, clock: Callable[[], float]
) -> "tuple[float, object]":
    best = None
    result = None
    for _ in range(repeats):
        start = clock()
        result = action()
        elapsed = clock() - start
        best = elapsed if best is None else min(best, elapsed)
    return best, result


def run_bench(
    detect_graph: Graph,
    technique_graph: Graph,
    techniques: Sequence[str] = BENCH_TECHNIQUES,
    repeats: int = 3,
    clock: Optional[Callable[[], float]] = None,
) -> Dict[str, object]:
    """Time each oracle (``reference``) vs its engine (``fast``); verify
    identical outputs.

    Returns the ``BENCH_reorder.json`` payload: per-(name, impl)
    timings in nodes/sec, per-name fast-over-reference speedups, and a
    ``results_match`` flag (a divergence raises instead — the benchmark
    must not report throughput for a wrong answer).
    """
    from repro.reorder.registry import make_technique

    if repeats < 1:
        raise ValidationError(f"repeats must be >= 1, got {repeats}")
    clock = clock or time.perf_counter
    rows: List[BenchRow] = []
    speedups: Dict[str, float] = {}

    def record(name: str, graph: Graph, runs: Dict[str, "tuple[float, object]"],
               same: bool) -> None:
        if not same:
            raise AssertionError(
                f"fast {name} output diverges from reference on the bench graph"
            )
        for impl in ("reference", "fast"):
            seconds = runs[impl][0]
            rows.append(
                BenchRow(
                    name=name,
                    impl=impl,
                    seconds=seconds,
                    nodes_per_s=graph.n_nodes / seconds if seconds > 0 else float("inf"),
                )
            )
        fast_seconds = runs["fast"][0]
        speedups[name] = (
            runs["reference"][0] / fast_seconds if fast_seconds > 0 else float("inf")
        )

    # Detection throughput (the headline row).
    detect_runs = {
        "reference": _timed_best(lambda: oracle_detection(detect_graph), repeats, clock),
        "fast": _timed_best(lambda: rabbit_communities(detect_graph), repeats, clock),
    }
    ref_result, fast_result = detect_runs["reference"][1], detect_runs["fast"][1]
    record(
        DETECT_ROW,
        detect_graph,
        detect_runs,
        np.array_equal(ref_result.assignment.labels, fast_result.assignment.labels)
        and ref_result.n_merges == fast_result.n_merges
        and np.array_equal(
            ref_result.dendrogram.ordering(), fast_result.dendrogram.ordering()
        ),
    )

    # Technique end-to-end permutations.
    for name in techniques:
        technique = make_technique(name)
        runs = {
            "reference": _timed_best(lambda: ORACLES[name](technique_graph), repeats, clock),
            "fast": _timed_best(lambda: technique.compute(technique_graph), repeats, clock),
        }
        record(
            name,
            technique_graph,
            runs,
            np.array_equal(runs["reference"][1], runs["fast"][1]),
        )

    return {
        "workloads": {
            "detection": _graph_json(detect_graph),
            "techniques": _graph_json(technique_graph),
        },
        "repeats": repeats,
        "results": [row.to_json() for row in rows],
        "speedups": speedups,
        "results_match": True,
    }


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

    Unlike :func:`run_bench` (reference vs fast, repeated timings), this
    mode measures how the pipeline behaves when the matrix is big:

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

    Returns a ``{"mode": "scale", ...}`` payload — a separate schema
    from :func:`run_bench`, so the perf-regression gate's
    ``BENCH_reorder.json`` contract is untouched.
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


def _graph_json(graph: Graph) -> Dict[str, object]:
    return {
        "n_nodes": graph.n_nodes,
        "nnz": int(graph.adjacency.nnz),
        "undirected_nnz": int(graph.to_undirected().adjacency.nnz),
    }
